"""Tests for repro.cluster.tracing: the affinity graph and the tracer."""

from types import SimpleNamespace

import pytest

from tests.conftest import committed, committed_system, make_object

from repro import Database, WorkloadConfig
from repro.cluster import AffinityGraph, ClusterTracer
from repro.config import ExperimentConfig
from repro.core import CompactionPlan
from repro.storage import Oid
from repro.workload import WorkloadDriver


A = Oid(1, 0, 0)
B = Oid(1, 0, 1)
C = Oid(1, 1, 0)
D = Oid(2, 0, 0)


# -- AffinityGraph ----------------------------------------------------------


def test_observe_weights_by_distance():
    graph = AffinityGraph()
    graph.observe([A, B, C], pair_window=2)
    assert graph.heat_of(A) == graph.heat_of(B) == graph.heat_of(C) == 1.0
    assert graph.edges[(A, B)] == 1.0          # adjacent
    assert graph.edges[(B, C)] == 1.0
    assert graph.edges[(A, C)] == 0.5          # distance 2
    assert graph.accesses == 3 and graph.pairs == 3


def test_observe_window_limits_pairs():
    graph = AffinityGraph()
    graph.observe([A, B, C], pair_window=1)
    assert (A, C) not in graph.edges


def test_observe_ignores_self_pairs():
    graph = AffinityGraph()
    graph.observe([A, A, A], pair_window=3)
    assert graph.heat_of(A) == 3.0
    assert not graph.edges


def test_observe_is_order_insensitive_in_edge_keys():
    graph = AffinityGraph()
    graph.observe([B, A], pair_window=1)
    graph.observe([A, B], pair_window=1)
    assert graph.edges == {(A, B): 2.0}


def test_decay_halves_and_drops_dust():
    graph = AffinityGraph()
    graph.observe([A, B], pair_window=1)
    graph.decay(0.5)
    assert graph.heat_of(A) == 0.5
    graph.decay(1e-4)                           # pushes below the floor
    assert not graph.heat and not graph.edges


def test_prune_keeps_heaviest_entries(monkeypatch):
    monkeypatch.setattr(AffinityGraph, "MAX_OBJECTS", 4)
    graph = AffinityGraph()
    for i in range(4):
        oid = Oid(1, 0, i)
        graph.observe([oid] * (i + 1), pair_window=1)
    graph.observe([Oid(1, 0, 9)], pair_window=1)  # 5th object: prune to 3
    assert len(graph.heat) == 3
    assert graph.heat_of(Oid(1, 0, 3)) == 4.0   # the heaviest survived
    assert graph.heat_of(Oid(1, 0, 0)) == 0.0


def test_remap_merges_collisions_additively():
    graph = AffinityGraph()
    graph.observe([A, C], pair_window=1)
    graph.observe([B, C], pair_window=1)
    graph.remap({A: B})                          # A's stats fold into B
    assert graph.heat_of(B) == 2.0
    assert graph.edges == {(B, C): 2.0}


def test_remap_drops_edges_that_collapse_to_self():
    graph = AffinityGraph()
    graph.observe([A, B], pair_window=1)
    graph.remap({A: B})
    assert not graph.edges


def test_partition_queries():
    graph = AffinityGraph()
    graph.observe([A, B, D], pair_window=1)
    assert graph.partition_heat() == {1: 2.0, 2: 1.0}
    assert graph.partition_edges(1) == [((A, B), 1.0)]
    assert graph.partition_edges(2) == []        # (B, D) crosses partitions


def test_adjacency_restricted_to_members():
    graph = AffinityGraph()
    graph.observe([A, B, C], pair_window=2)
    adj = graph.adjacency([A, B])
    assert adj == {A: {B: 1.0}, B: {A: 1.0}}


def test_top_queries_are_deterministic():
    graph = AffinityGraph()
    graph.observe([A, B], pair_window=1)
    graph.observe([B, C], pair_window=1)
    assert graph.top_hot(1) == [(B, 2.0)]        # ties break on the OID
    assert graph.top_edges(2) == [((A, B), 1.0), ((B, C), 1.0)]


# -- ClusterTracer ----------------------------------------------------------


def _txn(tid, status="committed"):
    """What the tracer reads of a transaction."""
    return SimpleNamespace(tid=tid, system=False,
                           status=SimpleNamespace(value=status))


def test_tracer_folds_on_commit_only():
    tracer = ClusterTracer(pair_window=2)
    tracer.access(_txn(7), "r", A)
    tracer.access(_txn(7), "w", B)
    assert not tracer.graph.heat                 # nothing until commit
    tracer.txn_end(_txn(7))
    assert tracer.commits == 1
    assert tracer.graph.edges == {(A, B): 1.0}


def test_tracer_discards_aborted_transactions():
    tracer = ClusterTracer()
    tracer.access(_txn(7), "r", A)
    tracer.txn_end(_txn(7, "aborted"))
    tracer.txn_end(_txn(7))                      # nothing left to fold
    assert tracer.aborts == 1 and tracer.commits == 0
    assert not tracer.graph.heat


def test_tracer_periodic_decay(monkeypatch):
    monkeypatch.setattr(ClusterTracer, "DECAY_EVERY", 2)
    tracer = ClusterTracer()
    for tid in range(2):
        tracer.access(_txn(tid), "r", A)
        tracer.txn_end(_txn(tid))
    assert tracer.graph.heat_of(A) == 1.0        # (1 + 1) * 0.5 at commit 2
    assert tracer.graph.accesses == 2            # lifetime totals undecayed


def test_tracer_rejects_bad_window():
    with pytest.raises(ValueError):
        ClusterTracer(pair_window=0)


# -- transaction integration ------------------------------------------------


def test_user_transactions_feed_the_tracer(engine):
    a = committed(engine, lambda txn: txn.create_object(1, make_object()))
    b = committed(engine, lambda txn: txn.create_object(1, make_object()))
    tracer = engine.subscribe(ClusterTracer())

    def body(txn):
        yield from txn.read(a)
        yield from txn.read(b)
        return None
    committed(engine, body)
    assert tracer.commits == 1
    assert tracer.graph.edges == {((a, b) if a < b else (b, a)): 1.0}


def test_system_transactions_are_never_traced(engine):
    a = committed(engine, lambda txn: txn.create_object(1, make_object()))
    tracer = engine.subscribe(ClusterTracer())

    def body(txn):
        yield from txn.read(a)
        return None
    committed_system(engine, body)
    assert tracer.commits == 0 and not tracer.graph.heat


def test_tracer_snapshot_at_begin(engine):
    """A transaction begun before the tracer was subscribed stays
    untraced — the subscribers are read when a transaction begins."""
    a = committed(engine, lambda txn: txn.create_object(1, make_object()))
    tracer = ClusterTracer()

    def body(txn):
        engine.subscribe(tracer)
        yield from txn.read(a)
        return None
    committed(engine, body)
    assert tracer.commits == 0 and not tracer.graph.heat


def test_the_tracer_follows_a_reorganization_no_driver_runs():
    workload = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                              mpl=2, seed=7)
    db, layout = Database.with_workload(workload)
    tracer = db.engine.subscribe(ClusterTracer())
    WorkloadDriver(db.engine, layout, ExperimentConfig(
        workload=workload)).run(horizon_ms=3_000.0)
    graph = tracer.graph
    heat = sum(graph.heat.values())
    stats = db.reorganize(1, "ira", plan=CompactionPlan())
    # No heat key or affinity edge names an address the run vacated ...
    vacated = set(stats.mapping) - set(db.engine.store.all_live_oids())
    assert vacated
    assert not vacated & set(graph.heat)
    assert not [edge for edge in graph.edges if vacated & set(edge)]
    # ... and remapping merged the statistics onto the new addresses.
    assert sum(graph.heat.values()) == pytest.approx(heat)
