"""The paper's workload: object-graph generator, random walks, driver."""

from .driver import WorkloadDriver
from .graphgen import (
    ROOT_PARTITION,
    GraphLayout,
    build_database,
    glue_slot,
    node_ref_capacity,
)
from .metrics import ExperimentMetrics, TransactionRecord
from .transactions import (
    WalkOutcome,
    cluster_scan_transaction,
    random_walk_transaction,
    scan_mix_transaction,
)

__all__ = [
    "ExperimentMetrics",
    "GraphLayout",
    "ROOT_PARTITION",
    "TransactionRecord",
    "WalkOutcome",
    "WorkloadDriver",
    "build_database",
    "cluster_scan_transaction",
    "glue_slot",
    "node_ref_capacity",
    "random_walk_transaction",
    "scan_mix_transaction",
]
