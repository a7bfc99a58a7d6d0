"""The integrity sweeps against the copying bodies they replaced.

``StorageEngine.verify_integrity`` reads each live object's shared cached
image and tests children against one set of live oids; ``MvccTier.verify``
skips the ordering check on one-entry chains.  The previous bodies — a
private image copy and a ``store.exists`` call per reference, a timestamp
list and a ``sorted(set(...))`` per chain — are kept here as oracles, and every
report must equal theirs field for field, in order, on engines that have
something to report.
"""

from functools import partial

from repro.config import DistConfig, MvccConfig, WorkloadConfig
from repro.core import CompactionPlan
from repro.database import Database
from repro.dist import DistCluster
from repro.dist.node import data_partition
from repro.engine import IntegrityReport
from repro.mvcc import MergeReorganizer, MvccTier
from repro.mvcc.versions import VersionEntry
from repro.storage.oid import Oid


# -- the oracles ---------------------------------------------------------------

def copying_verify_integrity(engine) -> IntegrityReport:
    """The previous ``StorageEngine.verify_integrity`` body."""
    report = IntegrityReport()
    lineage = (engine.mvcc.resolve_physical if engine.mvcc is not None
               else None)
    actual_ert = {pid: set() for pid in engine.store.partition_ids()}
    for parent in engine.store.all_live_oids():
        image = engine.store.read_object(parent)
        for slot, child in image.refs():
            if lineage is not None:
                child = lineage(child)
            if not engine.store.exists(child):
                if (engine.remote_resolver is not None
                        and not engine.store.has_partition(
                            child.partition)):
                    if not engine.remote_resolver(child):
                        report.dangling_refs.append((parent, slot, child))
                    continue
                report.dangling_refs.append((parent, slot, child))
            elif child.partition != parent.partition:
                actual_ert[child.partition].add((child, parent))
    if lineage is not None:
        return report
    for pid in engine.store.partition_ids():
        recorded = set(engine.ert_for(pid).entries())
        expected = actual_ert.get(pid, set())
        if engine.remote_ert_expected is not None:
            expected = expected | set(engine.remote_ert_expected(pid))
        for child, parent in expected - recorded:
            report.ert_missing.append((pid, child, parent))
        for child, parent in recorded - expected:
            report.ert_spurious.append((pid, child, parent))
    return report


def sorting_tier_verify(tier):
    """The previous ``MvccTier.verify`` body."""
    problems = []
    store = tier.engine.store
    for loid in sorted(tier.logical_ids):
        chain = tier._chains.get(loid)
        if not chain:
            problems.append(f"{loid}: no version chain")
            continue
        ts_list = [entry.ts for entry in chain]
        if ts_list != sorted(set(ts_list)):
            problems.append(
                f"{loid}: chain timestamps not strictly increasing: "
                f"{ts_list}")
        for entry in chain:
            if entry.is_base and not store.exists(entry.physical):
                problems.append(
                    f"{loid}: base sentinel at ts {entry.ts} names "
                    f"freed object {entry.physical}")
        head = chain[-1]
        if head.is_base and head.physical != tier.resolve_physical(loid):
            problems.append(
                f"{loid}: head base {head.physical} disagrees with "
                f"lineage {tier.resolve_physical(loid)}")
    return problems


def _same_report(engine) -> IntegrityReport:
    report = engine.verify_integrity()
    oracle = copying_verify_integrity(engine)
    assert report.dangling_refs == oracle.dangling_refs
    assert report.ert_missing == oracle.ert_missing
    assert report.ert_spurious == oracle.ert_spurious
    return report


# -- helpers ---------------------------------------------------------------------

def _small_db():
    db, _ = Database.with_workload(WorkloadConfig(
        num_partitions=2, objects_per_partition=170, mpl=4, seed=7))
    return db


def _refs(store):
    """``(local, cross)`` lists of ``(parent, slot, child)``."""
    local, cross = [], []
    for parent in store.all_live_oids():
        for slot, child in store.read_object(parent).refs():
            same = child.partition == parent.partition
            (local if same else cross).append((parent, slot, child))
    return local, cross


def _unallocated(store, partition_id, page_offset=7):
    """An address in a held partition that names no object."""
    pages = store.partition(partition_id)._pages
    return Oid(partition_id, max(pages) + page_offset, 0)


# -- StorageEngine.verify_integrity ----------------------------------------------

def test_planted_dangling_references():
    db = _small_db()
    store = db.engine.store
    assert _same_report(db.engine).ok
    local, cross = _refs(store)
    for parent, slot, _ in (local[3], cross[0], local[40]):
        store.set_ref(parent, slot, _unallocated(store, parent.partition))
    # Into a partition the store does not hold, with no remote resolver.
    parent, slot, _ = local[7]
    store.set_ref(parent, slot, Oid(9, 0, 0))
    report = _same_report(db.engine)
    assert len(report.dangling_refs) == 4
    # The cross-partition reference that went dangling left its ERT
    # entry behind.
    assert len(report.ert_spurious) == 1


def test_missing_and_spurious_ert_entries():
    db = _small_db()
    engine = db.engine
    local, cross = _refs(engine.store)
    for parent, _, child in cross[:2]:
        assert engine.ert_for(child.partition).remove(child, parent)
    parent, _, child = local[5]
    other = 3 - child.partition
    engine.ert_for(child.partition).add(
        child, Oid(other, parent.page, parent.slot))
    report = _same_report(engine)
    assert len(report.ert_missing) == 2
    assert len(report.ert_spurious) == 1
    assert report.dangling_refs == []


def test_mvcc_engine_after_a_merge_resolves_through_the_lineage():
    db = _small_db()
    engine = db.engine
    tier = MvccTier.attach(engine, MvccConfig())
    db.run(MergeReorganizer(engine, 1, plan=CompactionPlan()).run(),
           name="merge")
    moved = sorted(loid for loid in tier.logical_ids
                   if tier.resolve_physical(loid) != loid)
    assert moved and not engine.store.exists(moved[0])
    assert _same_report(engine).ok
    # One logical reference that resolves nowhere, one to a relocated
    # logical id (which resolves, so is not reported).
    store = engine.store
    parent = tier.resolve_physical(sorted(tier.logical_ids)[11])
    store.set_ref(parent, 0, _unallocated(store, 2))
    store.set_ref(parent, 1, moved[0])
    report = _same_report(engine)
    assert len(report.dangling_refs) == 1


def test_dist_engine_consults_the_remote_resolver():
    cluster = DistCluster(DistConfig(node_count=3, objects_per_partition=18,
                                     seed=11)).build()
    engine = cluster.nodes[0].engine
    engine.remote_resolver = cluster.exists
    engine.remote_ert_expected = partial(cluster.remote_ert_expected, 0)
    assert _same_report(engine).ok
    store = engine.store
    local, _ = _refs(store)
    remote = data_partition(1)
    live_remote = next(iter(
        cluster.nodes[1].engine.store.live_oids(remote)))
    # A live cross-node child (the resolver says yes), a cross-node child
    # that names nothing (it says no) and a local dangling child.
    (p1, s1, _), (p2, s2, _), (p3, s3, _) = local[2], local[9], local[15]
    store.set_ref(p1, s1, live_remote)
    store.set_ref(p2, s2, Oid(remote, 999, 0))
    store.set_ref(p3, s3, _unallocated(store, p3.partition))
    report = _same_report(engine)
    assert len(report.dangling_refs) == 2


# -- MvccTier.verify -------------------------------------------------------------

def _mvcc_tier():
    """The engine, its store and an attached tier.  The tier names its
    engine weakly, so a caller keeps the engine alive."""
    engine = _small_db().engine
    return engine, engine.store, MvccTier.attach(engine, MvccConfig())


def test_tier_verify_reports_freed_base_sentinels():
    _engine, store, tier = _mvcc_tier()
    one_entry, grown = sorted(tier.logical_ids)[4:6]
    # A one-entry chain whose base is gone, and a grown chain whose
    # oldest entry names a freed base below a tail.
    tier._chains[grown].append(VersionEntry(3, store.read_object(grown)))
    store.free_object(one_entry)
    store.free_object(grown)
    problems = tier.verify()
    assert problems == sorting_tier_verify(tier)
    assert len(problems) == 2


def test_tier_verify_reports_lineage_mismatch_disorder_and_no_chain():
    _engine, store, tier = _mvcc_tier()
    a, b, c, d = sorted(tier.logical_ids)[20:24]
    tier._lineage[a] = b
    image = store.read_object(c)
    tier._chains[c] += [VersionEntry(5, image), VersionEntry(5, image)]
    tier._chains[d] = []
    problems = tier.verify()
    assert problems == sorting_tier_verify(tier)
    assert len(problems) == 3
