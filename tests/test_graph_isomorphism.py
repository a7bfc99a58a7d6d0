"""Cross-checks reorganization correctness with networkx isomorphism.

The suite's ``graph_signature`` canonicalization is itself code under
test; these tests verify the stronger property directly — the labeled
object graph before and after a reorganization is isomorphic under the
migration mapping — using networkx as an independent oracle.
"""

import networkx as nx
import pytest

from repro import (
    CompactionPlan,
    Database,
    EvacuationPlan,
    ReorgConfig,
    WorkloadConfig,
)


def object_graph(db):
    """The database as a labeled multigraph (payload = node label).

    ``db`` is anything with a ``.store`` (Database, StorageEngine) or an
    object store itself.
    """
    store = getattr(db, "store", db)
    graph = nx.MultiDiGraph()
    for oid in store.all_live_oids():
        image = store.read_object(oid)
        graph.add_node(oid, payload=bytes(image.payload))
        for slot, child in image.refs():
            graph.add_edge(oid, child, slot=slot)
    return graph


def relabeled(graph, mapping):
    """The graph with every node translated through ``mapping``."""
    return nx.relabel_nodes(graph, lambda n: mapping.get(n, n), copy=True)


def graph_matches_under_mapping(before, after, mapping) -> list:
    """Exact equality of ``after`` against ``before`` relabeled through
    the migration mapping — stronger than isomorphism search.  Returns
    the list of discrepancies (empty = match)."""
    expected = relabeled(before, mapping)
    problems = []
    missing = set(expected.nodes) - set(after.nodes)
    extra = set(after.nodes) - set(expected.nodes)
    if missing:
        problems.append(f"objects missing after reorg: {sorted(missing)[:5]}")
    if extra:
        problems.append(f"unexpected objects after reorg: {sorted(extra)[:5]}")
    for node in set(expected.nodes) & set(after.nodes):
        if expected.nodes[node]["payload"] != after.nodes[node]["payload"]:
            problems.append(f"payload of {node} changed")
    expected_edges = sorted((u, v, d["slot"])
                            for u, v, d in expected.edges(data=True))
    actual_edges = sorted((u, v, d["slot"])
                          for u, v, d in after.edges(data=True))
    if expected_edges != actual_edges:
        gone = set(expected_edges) - set(actual_edges)
        born = set(actual_edges) - set(expected_edges)
        problems.append(f"edges changed: -{sorted(gone)[:4]} "
                        f"+{sorted(born)[:4]}")
    return problems


@pytest.fixture
def db_layout():
    return Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=2, seed=131))


@pytest.mark.parametrize("algorithm", ["ira", "ira-2lock", "pqr"])
def test_reorg_graph_isomorphic_under_mapping(db_layout, algorithm):
    db, _ = db_layout
    before = object_graph(db)
    stats = db.reorganize(1, algorithm=algorithm, plan=CompactionPlan())
    after = object_graph(db)

    expected = relabeled(before, stats.mapping)
    # Exact equality under the mapping — stronger than isomorphism search.
    assert set(expected.nodes) == set(after.nodes)
    for node in expected.nodes:
        assert expected.nodes[node]["payload"] == \
            after.nodes[node]["payload"]
    expected_edges = sorted((u, v, d["slot"])
                            for u, v, d in expected.edges(data=True))
    actual_edges = sorted((u, v, d["slot"])
                          for u, v, d in after.edges(data=True))
    assert expected_edges == actual_edges
    # The library form of the same check must agree.
    assert graph_matches_under_mapping(before, after, stats.mapping) == []


def test_evacuation_graph_isomorphic(db_layout):
    db, _ = db_layout
    before = object_graph(db)
    stats = db.reorganize(1, algorithm="ira", plan=EvacuationPlan(9),
                          reorg_config=ReorgConfig(migration_batch_size=5))
    after = object_graph(db)
    expected = relabeled(before, stats.mapping)
    assert nx.utils.graphs_equal(
        nx.MultiDiGraph(expected), nx.MultiDiGraph(after)) or \
        sorted(expected.edges) == sorted(after.edges)
    assert graph_matches_under_mapping(before, after, stats.mapping) == []


def test_graph_connectivity_preserved(db_layout):
    """Every object reachable from the persistent roots stays reachable."""
    db, layout = db_layout
    roots = [stub for stubs in layout.root_stubs.values()
             for stub in stubs]
    before = object_graph(db)
    reachable_before = set()
    for root in roots:
        reachable_before |= nx.descendants(before, root) | {root}

    stats = db.reorganize(1, algorithm="ira", plan=CompactionPlan())
    after = object_graph(db)
    mapped_roots = [stats.mapping.get(r, r) for r in roots]
    reachable_after = set()
    for root in mapped_roots:
        reachable_after |= nx.descendants(after, root) | {root}

    assert len(reachable_after) == len(reachable_before)
    expected = {stats.mapping.get(oid, oid) for oid in reachable_before}
    assert reachable_after == expected
