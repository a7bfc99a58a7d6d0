"""Distributed multi-node object store with cross-node reorganization.

Shards partitions across N simulated nodes — each a full storage engine
with its own WAL and resources — connected by a latency-modeled,
partitionable interconnect on the shared DES kernel.  Cross-node
physical references make reference maintenance during migration a
distributed protocol: presumed-abort two-phase commit with WAL-logged
coordinator and participant state, crash-consistent at every message
boundary.  See DIST.md for the sharding model, the protocol walkthrough
and the failure matrix.
"""

from .chaos import (ChaosReport, ChaosResult, arm_fault_plan,
                    default_scenarios, run_dist_chaos)
from .cluster import DistCluster
from .detector import FailureDetector
from .net import Interconnect
from .node import DistNode, data_partition, hub_partition
from .reorg import DistReorganizer, resume_reorg, start_reorg
from .rpc import RpcEndpoint
from .twopc import (COORDINATOR_STAGES, PARTICIPANT_STAGES,
                    TwoPhaseManager)
from .verify import (cluster_deep_verify, cluster_digests,
                     cluster_graph_signature, node_state_digest,
                     reconcile_remote_ert, unresolved_in_doubt)

__all__ = [
    "COORDINATOR_STAGES",
    "ChaosReport",
    "ChaosResult",
    "DistCluster",
    "DistNode",
    "DistReorganizer",
    "FailureDetector",
    "Interconnect",
    "PARTICIPANT_STAGES",
    "RpcEndpoint",
    "TwoPhaseManager",
    "arm_fault_plan",
    "cluster_deep_verify",
    "cluster_digests",
    "cluster_graph_signature",
    "data_partition",
    "default_scenarios",
    "hub_partition",
    "node_state_digest",
    "reconcile_remote_ert",
    "resume_reorg",
    "run_dist_chaos",
    "start_reorg",
    "unresolved_in_doubt",
]
