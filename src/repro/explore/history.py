"""Observed read/write history + conflict-graph serializability.

:class:`HistoryRecorder` is a probe fed by the transaction layer: every
object read and every logged physical write notes ``(tid, action, oid)``
in global execution order (the order the accesses actually happened in
the simulation — at most one callback runs at a time, so the order is
total).

:func:`check_serializability` builds the conflict graph over the
*committed* transactions: an edge T1 → T2 whenever T1 accessed an object
before T2 did and at least one of the two accesses is a write.  A cycle
means the schedule is not conflict-serializable — under the engine's
strict 2PL that is an invariant violation, which is exactly why the
explorer runs this oracle over every perturbed schedule.

Conflicts are keyed by physical address.  Reorganization moves objects
between addresses, but the reorganizer's own transactions write both the
old and the new location, so any user-transaction ordering induced
through a migrated object is chained through the reorganizer's node in
the graph — address-level conflict-serializability remains the right
formal property (those are the items actually locked).

:class:`SnapshotHistory` is the same for snapshot transactions: the
streams the snapshot-isolation oracle judges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..engine import Probe


@dataclass(frozen=True)
class Access:
    seq: int
    tid: int
    action: str  # "r" or "w"
    oid: object
    at_ms: float


class HistoryRecorder(Probe):
    """Collects accesses and transaction outcomes during one run."""

    def __init__(self, sim):
        self.sim = sim
        self.accesses: List[Access] = []
        self.committed: Set[int] = set()
        self.aborted: Set[int] = set()
        #: tid -> (system, reorg_partition) for post-run attribution.
        self.txn_kind: Dict[int, Tuple[bool, Optional[int]]] = {}
        self._seq = 0

    def txn_begin(self, txn) -> None:
        self.txn_kind[txn.tid] = (txn.system, txn.reorg_partition)

    def access(self, txn, action: str, oid) -> None:
        self._seq += 1
        self.accesses.append(Access(self._seq, txn.tid, action, oid,
                                    self.sim.now))

    def txn_end(self, txn) -> None:
        if txn.status.value == "committed":
            self.committed.add(txn.tid)
        else:
            self.aborted.add(txn.tid)


@dataclass
class TxnHistory:
    """One snapshot transaction's footprint."""

    begin_ts: int
    commit_ts: Optional[int]            # None = aborted / read-only
    #: ``(logical oid, commit_ts of the version the read returned)``.
    reads: List[Tuple[object, int]] = field(default_factory=list)
    writes: Tuple[object, ...] = ()
    committed: bool = False


class SnapshotHistory(Probe):
    """What the MVCC tier did during one run, for the snapshot-isolation
    oracle: every commit's timestamp and write set in commit order, each
    snapshot transaction's footprint, and the GC audit trail
    ``(loid, pruned_ts, successor_ts, watermark)`` per pruned version."""

    def __init__(self):
        self.commit_log: List[Tuple[int, Tuple[object, ...]]] = []
        self.history: List[TxnHistory] = []
        self.gc_log: List[Tuple[object, int, int, int]] = []

    def snapshot_end(self, stxn, committed: bool) -> None:
        self.history.append(TxnHistory(
            begin_ts=stxn.begin_ts, commit_ts=stxn.commit_ts,
            reads=list(stxn._reads), writes=tuple(sorted(stxn._writes)),
            committed=committed))

    def version_commit(self, commit_ts: int, writes) -> None:
        self.commit_log.append((commit_ts, tuple(sorted(writes))))

    def version_pruned(self, loid, ts: int, successor_ts: int,
                       watermark: int) -> None:
        self.gc_log.append((loid, ts, successor_ts, watermark))


@dataclass
class SerializabilityReport:
    ok: bool = True
    transactions: int = 0
    edges: int = 0
    #: One conflict cycle (tids, first repeated at the end) if not ok.
    cycle: List[int] = field(default_factory=list)

    def problems(self) -> List[str]:
        if self.ok:
            return []
        return [f"conflict cycle: {' -> '.join(map(str, self.cycle))}"]


def conflict_graph(accesses: List[Access],
                   committed: Set[int]) -> Dict[int, Set[int]]:
    """Adjacency sets of the conflict graph over committed transactions."""
    graph: Dict[int, Set[int]] = {tid: set() for tid in committed}
    # One pass in execution order: each access conflicts with every
    # earlier access to the same oid by a different committed txn where
    # at least one side writes.
    writers_so_far: Dict[object, Set[int]] = {}
    readers_so_far: Dict[object, Set[int]] = {}
    for access in accesses:
        if access.tid not in committed:
            continue
        if access.action == "w":
            for prior in writers_so_far.get(access.oid, ()):
                if prior != access.tid:
                    graph[prior].add(access.tid)
            for prior in readers_so_far.get(access.oid, ()):
                if prior != access.tid:
                    graph[prior].add(access.tid)
            writers_so_far.setdefault(access.oid, set()).add(access.tid)
        else:
            for prior in writers_so_far.get(access.oid, ()):
                if prior != access.tid:
                    graph[prior].add(access.tid)
            readers_so_far.setdefault(access.oid, set()).add(access.tid)
    return graph


def _find_cycle(graph: Dict[int, Set[int]]) -> List[int]:
    """A cycle in the directed graph, or [] — iterative three-color DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    parent: Dict[int, Optional[int]] = {}
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, object]] = [(root, iter(sorted(graph[root])))]
        color[root] = GRAY
        parent[root] = None
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if color.get(child, BLACK) == WHITE:
                    color[child] = GRAY
                    parent[child] = node
                    stack.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if color.get(child) == GRAY:
                    cycle = [child]
                    walk = node
                    while walk is not None and walk != child:
                        cycle.append(walk)
                        walk = parent[walk]
                    cycle.append(child)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []


def check_serializability(history: HistoryRecorder) -> SerializabilityReport:
    """Conflict-serializability verdict over the recorded history."""
    graph = conflict_graph(history.accesses, history.committed)
    report = SerializabilityReport(
        transactions=len(graph),
        edges=sum(len(out) for out in graph.values()))
    cycle = _find_cycle(graph)
    if cycle:
        report.ok = False
        report.cycle = cycle
    return report
