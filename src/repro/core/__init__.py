"""The paper's contribution: on-line reorganization algorithms.

Each is one lock footprint around the same relocation step, run by one
skeleton (:class:`Reorganizer`, :mod:`repro.core.reorganizer`):

* :class:`IncrementalReorganizer` — basic IRA (§3).
* :class:`TwoLockReorganizer` — the at-most-two-distinct-locks extension
  (§4.2); also works when transactions use short-duration locks (§4.1).
* :class:`PartitionQuiesceReorganizer` — the PQR baseline (§5.1).
* :class:`OfflineReorganizer` — the quiescent-database baseline (§3.1).
* :class:`CopyingGarbageCollector` / :class:`MarkAndSweepCollector` —
  garbage collection built on the same machinery (§4.6).
"""

from .checkpointing import (
    ReorgDelta,
    ReorgState,
    ReorgStateStore,
    WalReorgStateStore,
    decode_reorg_delta,
    decode_reorg_state,
    encode_reorg_state,
    rebuild_trt,
    resume_reorganization,
)
from .gc import CopyingGarbageCollector, GcStats, MarkAndSweepCollector
from .ira import IncrementalReorganizer
from .ira_twolock import TwoLockReorganizer, references_equal
from .offline import OfflineReorganizer
from .plan import (
    ClusteringPlan,
    CompactionPlan,
    EvacuationPlan,
    ParentLocalityPlan,
    RelocationPlan,
)
from .pqr import PartitionQuiesceReorganizer
from .reorganizer import Reorganizer, ReorgStats
from .selection import (
    PartitionSelector,
    fragmentation_score,
    garbage_estimate,
)
from .traversal import (
    TraversalResult,
    find_objects_and_approx_parents,
    fuzzy_traversal,
)

__all__ = [
    "ClusteringPlan",
    "CompactionPlan",
    "CopyingGarbageCollector",
    "EvacuationPlan",
    "GcStats",
    "ParentLocalityPlan",
    "IncrementalReorganizer",
    "MarkAndSweepCollector",
    "OfflineReorganizer",
    "PartitionQuiesceReorganizer",
    "PartitionSelector",
    "RelocationPlan",
    "ReorgDelta",
    "ReorgState",
    "ReorgStateStore",
    "ReorgStats",
    "Reorganizer",
    "TraversalResult",
    "TwoLockReorganizer",
    "WalReorgStateStore",
    "decode_reorg_delta",
    "decode_reorg_state",
    "encode_reorg_state",
    "find_objects_and_approx_parents",
    "fragmentation_score",
    "fuzzy_traversal",
    "garbage_estimate",
    "rebuild_trt",
    "references_equal",
    "resume_reorganization",
]
