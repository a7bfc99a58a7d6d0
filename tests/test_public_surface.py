"""The public surface, counted (simplicity-review, "every public name
earns its place").

Each exported name is something tests, docs and users have to carry, so
the sets are pinned: exporting or dropping a name is a visible edit here.
The packages pinned are the top-level API and the three subpackages whose
names it re-exports or that a figure, a CLI command, an example or an
oracle reaches.
"""

import pytest

import repro
import repro.cluster
import repro.core
import repro.hlock

SURFACE = {
    "repro": {
        "AffinityClusteringPlan", "AffinityGraph", "ClusterTracer",
        "ClusteringAdvisor", "ClusteringPlan", "CompactionPlan",
        "CorruptionError", "CrashImage", "Database", "DeadlockError",
        "EngineError", "EvacuationPlan", "ExperimentConfig",
        "ExperimentMetrics", "FaultInjector", "FaultPlan", "FleetConfig",
        "GovernorConfig", "GraphLayout", "IncrementalReorganizer",
        "IntegrityReport", "LockMode", "LockTimeoutError",
        "MarkAndSweepCollector", "ObjectImage", "OfflineReorganizer", "Oid",
        "ParentLocalityPlan", "PartitionQuiesceReorganizer",
        "RandomPlacementPlan", "ReferenceProtocolError", "RelocationPlan",
        "ReorgConfig", "ReorgFleet", "ReorgGovernor", "ReorgStats",
        "ReorganizationError", "ScrubStats", "Scrubber", "ServeConfig",
        "ServeMetrics", "ServingLayer", "StorageEngine", "SystemConfig",
        "TransactionStateError", "TwoLockReorganizer", "VerifyReport",
        "WalReorgStateStore", "WorkloadConfig", "WorkloadDriver",
        "__version__", "build_database", "chaos_sweep", "deep_verify"},
    "repro.core": {
        "ClusteringPlan", "CompactionPlan", "EvacuationPlan",
        "IncrementalReorganizer", "MarkAndSweepCollector",
        "OfflineReorganizer", "ParentLocalityPlan",
        "PartitionQuiesceReorganizer", "RelocationPlan", "ReorgDelta",
        "ReorgState", "ReorgStateStore", "ReorgStats", "Reorganizer",
        "TraversalResult", "TwoLockReorganizer", "WalReorgStateStore",
        "decode_reorg_delta", "decode_reorg_state", "encode_reorg_state",
        "find_objects_and_approx_parents", "fuzzy_traversal", "rebuild_trt",
        "references_equal", "resume_reorganization"},
    "repro.cluster": {
        "Advice", "AffinityClusteringPlan", "AffinityGraph",
        "ClusterTracer", "ClusteringAdvisor", "DSTCClusterer", "Placement",
        "RandomPlacementPlan", "objects_per_page"},
    "repro.hlock": {
        "HierarchicalLockManager", "LOCK_MANAGERS", "PageGranule",
        "PartitionGranule", "build_lock_manager", "descendant_of"},
}

MODULES = {module.__name__: module
           for module in (repro, repro.core, repro.cluster, repro.hlock)}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_the_public_names_are_pinned(name):
    # Sorted lists, not sets: a name exported twice fails too.
    assert sorted(MODULES[name].__all__) == sorted(SURFACE[name])
