"""Tests for repro.cluster.plan: clustering plans driving real IRA runs."""

import pytest

from tests.conftest import run

from repro import Database, WorkloadConfig
from repro.cluster import AffinityClusteringPlan, RandomPlacementPlan
from repro.cluster.tracing import AffinityGraph

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=2, seed=7)


def traced_db():
    """A loaded database plus a synthetic affinity graph over partition
    1: pairs of address-distant objects traced as hot co-accesses."""
    db, layout = Database.with_workload(WORKLOAD)
    members = sorted(db.store.live_oids(1))
    graph = AffinityGraph()
    half = len(members) // 2
    # Pair object i with object half+i: hot pairs straddle the layout.
    for a, b in zip(members[:20], members[half:half + 20]):
        for _ in range(3):
            graph.observe([a, b], pair_window=1)
    return db, graph, list(zip(members[:20], members[half:half + 20]))


def reorganize(db, partition_id, plan):
    reorganizer = db.reorganizer(partition_id, "ira", plan=plan)
    stats = run(db.engine, reorganizer.run(), name="reorg")
    report = db.verify_integrity()
    assert report.ok, report.problems()[:3]
    return stats


def co_resident(mapping, pairs):
    """How many traced pairs share a page at their mapped addresses."""
    return sum(1 for a, b in pairs
               if mapping.get(a, a).page == mapping.get(b, b).page)


def test_affinity_plan_coresidents_hot_pairs_in_place():
    db, graph, pairs = traced_db()
    before = co_resident({}, pairs)
    stats = reorganize(db, 1, AffinityClusteringPlan(graph))
    after = co_resident(stats.mapping, pairs)
    assert before == 0                       # pairs started pages apart
    # All pairs end page-sharing, except at most one cluster straddling
    # a page boundary (clusters pack back-to-back, not page-aligned).
    assert after >= len(pairs) - 1


def test_affinity_plan_respects_fresh_only():
    db, graph, _ = traced_db()
    partition = db.store.partition(1)
    plan = AffinityClusteringPlan(graph)
    stats = reorganize(db, 1, plan)
    floor = partition.relocation_floor
    assert floor > 0
    assert all(new.page >= floor for new in stats.mapping.values())
    # In-place re-pack: the emptied old pages were dropped.
    assert all(no >= floor for no in partition.page_numbers())


def test_affinity_plan_evacuates_into_clustered_target():
    db, graph, pairs = traced_db()
    stats = reorganize(db, 1, AffinityClusteringPlan(graph,
                                                     target_partition=9))
    assert db.store.stats(1).live_objects == 0
    assert db.store.stats(9).live_objects == WORKLOAD.objects_per_partition
    assert all(new.partition == 9 for new in stats.mapping.values())
    # The clustered placement holds in the evacuation target too (up to
    # one pair straddling a page boundary).
    assert co_resident(stats.mapping, pairs) >= len(pairs) - 1


def test_affinity_plan_hot_objects_lead_the_layout():
    """Placed (hot) objects migrate first, so they pack the lowest fresh
    pages; cold objects follow in address order."""
    db, graph, _ = traced_db()
    stats = reorganize(db, 1, AffinityClusteringPlan(graph))
    hot = {oid for oid in graph.heat if oid.partition == 1}
    hottest_new_pages = {stats.mapping[oid].page for oid in hot}
    cold_pages = {new.page for old, new in stats.mapping.items()
                  if old not in hot}
    assert max(hottest_new_pages) <= min(cold_pages)


def test_affinity_plan_is_deterministic():
    results = []
    for _ in range(2):
        db, graph, _ = traced_db()
        stats = reorganize(db, 1, AffinityClusteringPlan(graph))
        results.append(stats.mapping)
    assert results[0] == results[1]


def test_affinity_plan_key_before_prepare_raises():
    plan = AffinityClusteringPlan(AffinityGraph())
    with pytest.raises(RuntimeError, match="before prepare"):
        plan.order(list(traced_db()[0].store.live_oids(1)))


def test_random_plan_is_seeded_and_fresh_only():
    mappings = []
    for _ in range(2):
        db, _, _ = traced_db()
        partition = db.store.partition(1)
        stats = reorganize(db, 1, RandomPlacementPlan(seed=3))
        assert all(new.page >= partition.relocation_floor
                   for new in stats.mapping.values())
        mappings.append(stats.mapping)
    assert mappings[0] == mappings[1]
    db, _, _ = traced_db()
    other = reorganize(db, 1, RandomPlacementPlan(seed=4))
    assert other.mapping != mappings[0]


def test_random_plan_evacuates_to_target():
    db, _, _ = traced_db()
    stats = reorganize(db, 2, RandomPlacementPlan(seed=1,
                                                  target_partition=8))
    assert db.store.stats(2).live_objects == 0
    assert all(new.partition == 8 for new in stats.mapping.values())
