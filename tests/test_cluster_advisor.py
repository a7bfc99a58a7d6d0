"""Tests for repro.cluster.advisor: when/which-partition ranking."""

from tests.conftest import committed, make_object, run

from repro import Database, WorkloadConfig
from repro.cluster import AffinityClusteringPlan, ClusteringAdvisor
from repro.cluster.tracing import AffinityGraph
from repro.storage import Oid


def loaded_db():
    return Database.with_workload(WorkloadConfig(
        num_partitions=2, objects_per_partition=170, mpl=2, seed=7))


def test_scatter_distinguishes_split_from_packed(engine):
    a = committed(engine, lambda txn: txn.create_object(1, make_object()))
    b = committed(engine, lambda txn: txn.create_object(1, make_object()))
    graph = AffinityGraph()
    graph.observe([a, b], pair_window=1)
    advisor = ClusteringAdvisor(graph)
    assert a.page == b.page                     # packed on one page
    assert advisor.scatter(engine, 1) == 0.0
    # The same weight across pages is fully scattered.
    db, _ = loaded_db()
    members = sorted(db.store.live_oids(1))
    split_graph = AffinityGraph()
    split_graph.observe([members[0], members[-1]], pair_window=1)
    assert ClusteringAdvisor(split_graph).scatter(db.engine, 1) == 1.0


def test_scatter_skips_dead_endpoints(engine):
    a = committed(engine, lambda txn: txn.create_object(1, make_object()))
    graph = AffinityGraph()
    graph.observe([a, Oid(1, 99, 0)], pair_window=1)  # stale partner
    assert ClusteringAdvisor(graph).scatter(engine, 1) == 0.0


def test_rank_prefers_hot_scattered_partition():
    db, _ = loaded_db()
    graph = AffinityGraph()
    members = sorted(db.store.live_oids(2))
    # Partition 2: heavy cross-page traffic.  Partition 1: untraced.
    for a, b in zip(members[:10], members[-10:]):
        graph.observe([a, b], pair_window=1)
    advisor = ClusteringAdvisor(graph)
    ranked = advisor.rank(db.engine, candidates=[1, 2])
    assert [a.partition_id for a in ranked] == [2, 1]
    best = advisor.recommend(db.engine, candidates=[1, 2])
    assert best.partition_id == 2
    assert best.scatter == 1.0 and best.heat_share == 1.0


def test_rank_ties_break_toward_lower_partition_id():
    db, _ = loaded_db()
    ranked = ClusteringAdvisor(AffinityGraph()).rank(db.engine,
                                                     candidates=[2, 1])
    # Identically-shaped partitions, empty graph: equal scores.
    assert [a.score for a in ranked][0] == [a.score for a in ranked][1]
    assert [a.partition_id for a in ranked] == [1, 2]


def test_recommend_none_below_min_score():
    """An empty, untraced partition scores 0: nothing to reorganize."""
    db, _ = loaded_db()
    db.create_partition(9)
    advisor = ClusteringAdvisor(AffinityGraph())
    assert advisor.advice_for(db.engine, 9).score == 0.0
    assert advisor.recommend(db.engine, candidates=[9]) is None
    assert advisor.recommend(db.engine, candidates=[1, 9]).partition_id == 1


def test_score_blends_fragmentation_and_scatter():
    db, _ = loaded_db()
    graph = AffinityGraph()
    members = sorted(db.store.live_oids(1))
    graph.observe([members[0], members[-1]], pair_window=1)
    advice = ClusteringAdvisor(graph).advice_for(db.engine, 1)
    assert advice.fragmentation > 0.0 and advice.scatter == 1.0
    assert advice.score == (advice.fragmentation
                            + advice.scatter * advice.heat_share)


def test_reorganizing_the_recommendation_lowers_its_score():
    """Closing the loop: reorganize the advised partition with the
    advised statistics, remap, and the advisor stops advising it."""
    db, _ = loaded_db()
    graph = AffinityGraph()
    members = sorted(db.store.live_oids(1))
    half = len(members) // 2
    for a, b in zip(members[:15], members[half:half + 15]):
        graph.observe([a, b], pair_window=1)
    advisor = ClusteringAdvisor(graph)
    before = advisor.advice_for(db.engine, 1)
    assert before.scatter == 1.0
    reorganizer = db.reorganizer(1, "ira",
                                 plan=AffinityClusteringPlan(graph))
    stats = run(db.engine, reorganizer.run(), name="reorg")
    graph.remap(stats.mapping)
    after = advisor.advice_for(db.engine, 1)
    assert after.scatter < 0.1
    assert after.score < before.score
