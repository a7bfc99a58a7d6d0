"""Lineage/MVCC read tier (ROADMAP item 2).

Snapshot reads served from commit-timestamped version chains, writers
appending WAL-logged tail deltas, and a merge-style reorganizer that
consolidates tails into relocated, cluster-placed base records installed
with an atomic epoch flip — on-line reorganization that never blocks a
reader.  See ``MVCC.md`` for the design note.
"""

from .merge import MergeReorganizer
from .snapshot import SnapshotTransaction, begin_snapshot_txn
from .versions import MvccStats, MvccTier, VersionEntry
from .workload import mvcc_random_walk

__all__ = [
    "MergeReorganizer",
    "MvccStats",
    "MvccTier",
    "SnapshotTransaction",
    "VersionEntry",
    "begin_snapshot_txn",
    "mvcc_random_walk",
]
