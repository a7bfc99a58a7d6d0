"""repro — On-line Reorganization in Object Databases (SIGMOD 2000).

A from-scratch reproduction of Lakhamraju, Rastogi, Seshadri and
Sudarshan's Incremental Reorganization Algorithm (IRA) and its
performance study: an object storage manager with *physical* references
(slotted pages, WAL/ARIES recovery, strict-2PL lock manager, extendible
hashing, ERT/TRT maintained by a log analyzer), the IRA and its two-lock
extension, the PQR and off-line baselines, on-line garbage collection,
the paper's workload, and a benchmark harness for every table and figure.

Quick start::

    from repro import Database, WorkloadConfig

    db, layout = Database.with_workload(WorkloadConfig(
        num_partitions=2, objects_per_partition=340, mpl=4))
    stats = db.compact(partition_id=1)
    assert db.verify_integrity().ok
"""

from .config import (
    ExperimentConfig,
    FleetConfig,
    GovernorConfig,
    ReorgConfig,
    ServeConfig,
    SystemConfig,
    WorkloadConfig,
)
from .core import (
    ClusteringPlan,
    CompactionPlan,
    EvacuationPlan,
    IncrementalReorganizer,
    MarkAndSweepCollector,
    OfflineReorganizer,
    ParentLocalityPlan,
    PartitionQuiesceReorganizer,
    RelocationPlan,
    ReorgStats,
    TwoLockReorganizer,
)
from .core import WalReorgStateStore
from .cluster import (
    AffinityClusteringPlan,
    AffinityGraph,
    ClusteringAdvisor,
    ClusterTracer,
    RandomPlacementPlan,
)
from .database import Database
from .engine import CrashImage, IntegrityReport, StorageEngine
from .faults import FaultInjector, FaultPlan, chaos_sweep
from .errors import (
    EngineError,
    ReferenceProtocolError,
    ReorganizationError,
    TransactionStateError,
)
from .concurrency import DeadlockError, LockMode, LockTimeoutError
from .serve import ReorgFleet, ReorgGovernor, ServeMetrics, ServingLayer
from .storage import CorruptionError, ObjectImage, Oid
from .storage.scrub import Scrubber, ScrubStats
from .verify import VerifyReport, deep_verify
from .workload import (
    ExperimentMetrics,
    GraphLayout,
    WorkloadDriver,
    build_database,
)

__version__ = "1.0.0"

__all__ = [
    "AffinityClusteringPlan",
    "AffinityGraph",
    "ClusterTracer",
    "ClusteringAdvisor",
    "ClusteringPlan",
    "DeadlockError",
    "FleetConfig",
    "GovernorConfig",
    "RandomPlacementPlan",
    "CompactionPlan",
    "CorruptionError",
    "CrashImage",
    "Database",
    "EngineError",
    "EvacuationPlan",
    "ExperimentConfig",
    "ExperimentMetrics",
    "FaultInjector",
    "FaultPlan",
    "GraphLayout",
    "IncrementalReorganizer",
    "IntegrityReport",
    "LockMode",
    "LockTimeoutError",
    "MarkAndSweepCollector",
    "ObjectImage",
    "OfflineReorganizer",
    "Oid",
    "ParentLocalityPlan",
    "PartitionQuiesceReorganizer",
    "ReferenceProtocolError",
    "RelocationPlan",
    "ReorgConfig",
    "ReorgFleet",
    "ReorgGovernor",
    "ReorgStats",
    "ReorganizationError",
    "ScrubStats",
    "Scrubber",
    "ServeConfig",
    "ServeMetrics",
    "ServingLayer",
    "StorageEngine",
    "SystemConfig",
    "TransactionStateError",
    "TwoLockReorganizer",
    "VerifyReport",
    "WalReorgStateStore",
    "WorkloadConfig",
    "WorkloadDriver",
    "build_database",
    "chaos_sweep",
    "deep_verify",
    "__version__",
]
