"""Tests for repro.cluster.policies: DSTC clustering and placements."""

from repro import Database, WorkloadConfig
from repro.cluster import (
    AffinityGraph,
    DSTCClusterer,
    Placement,
    objects_per_page,
)
from repro.storage import Oid


def oids(n, partition=1):
    return [Oid(partition, i // 10, i % 10) for i in range(n)]


def test_placement_keys_order_clusters_then_ranks():
    a, b, c = oids(3)
    placement = Placement.build(2, [[b, a], [c]])
    assert placement.cluster_key(b) == (0, 0, 0)
    assert placement.cluster_key(a) == (0, 0, 1)
    assert placement.cluster_key(c) == (0, 1, 0)
    unplaced = Oid(1, 9, 9)
    assert placement.cluster_key(unplaced) > placement.cluster_key(c)
    assert placement.placed(a) and not placement.placed(unplaced)
    assert placement.placed_count == 3


def test_dstc_grows_by_affinity_not_heat():
    a, b, c, d = oids(4)
    graph = AffinityGraph()
    graph.observe([a, b], pair_window=1)            # strong a-b affinity
    graph.observe([a, b], pair_window=1)
    graph.observe([c, d], pair_window=1)
    graph.observe([c] * 9, pair_window=1)           # c is the hottest
    placement = DSTCClusterer().build([a, b, c, d], graph, per_page=2)
    # c seeds first (hottest) and pulls its neighbor d, not the hotter a.
    assert placement.clusters == [[c, d], [a, b]]


def test_dstc_admits_weak_affinity():
    a, b, c = oids(3)
    graph = AffinityGraph()
    graph.observe([a, b, c], pair_window=2)         # a-c weight only 0.5
    placement = DSTCClusterer().build([a, b, c], graph, 3)
    assert placement.clusters == [[a, b, c]]


def test_dstc_respects_page_capacity():
    members = oids(5)
    graph = AffinityGraph()
    graph.observe(members, pair_window=4)
    placement = DSTCClusterer().build(members, graph, per_page=3)
    assert [len(c) for c in placement.clusters] == [3, 2]


def test_policies_are_deterministic_across_runs():
    members = oids(30)
    graph = AffinityGraph()
    for start in range(0, 30, 3):
        graph.observe(members[start:start + 3], pair_window=2)
    first = DSTCClusterer().build(list(members), graph, per_page=4)
    second = DSTCClusterer().build(list(reversed(members)), graph,
                                   per_page=4)
    assert first.clusters == second.clusters


def test_objects_per_page_tracks_real_capacity():
    """The average-size estimate must not exceed what a page actually
    holds (a cluster must fit on one page), and must come close — a far
    smaller estimate would fragment the hot set over extra pages."""
    db, _ = Database.with_workload(WorkloadConfig(
        num_partitions=1, objects_per_partition=85, mpl=1))
    per_page = objects_per_page(db.engine, 1)
    partition = db.store.partition(1)
    fullest = max(len(list(partition.page(no).slots()))
                  for no in partition.page_numbers())
    assert fullest * 0.9 <= per_page <= fullest


def test_objects_per_page_empty_partition(engine):
    assert objects_per_page(engine, 1) == 1
