"""On-line access tracing: heat and affinity statistics.

The source paper leaves the *why* of reorganization to the driving
operation (§2); Darmont et al.'s dynamic-clustering line of work supplies
it: observe the workload on-line, derive object-affinity placements, and
recluster.  This module is the observation half — a passive tracer fed by
the transaction layer that maintains

* per-object **heat**: decayed access counters, and
* a bounded **affinity edge map**: within-transaction co-access pairs,
  weighted by how close together the two accesses were.

The tracer is an engine probe, and so deliberately inert with respect to
the simulation: it never yields, never touches a random stream, never
schedules an event, and an engine with nothing subscribed pays one
truthiness check per access — so a run with tracing enabled is
byte-identical to the same run with tracing disabled
(``tests/test_cluster_identity.py`` pins this).  It follows objects as
they move: every reorganization that completes remaps its statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..engine import Probe
from ..storage.oid import Oid

#: An affinity edge is an unordered OID pair, stored (low, high).
Edge = Tuple[Oid, Oid]


class AffinityGraph:
    """Decayed heat counters plus a bounded co-access edge map."""

    #: Past these sizes the lightest quarter of the entries is pruned.
    MAX_OBJECTS = 16384
    MAX_EDGES = 65536

    def __init__(self):
        self.heat: Dict[Oid, float] = {}
        self.edges: Dict[Edge, float] = {}
        #: Totals over the tracer's lifetime (not decayed) — cheap
        #: telemetry for the CLI.
        self.accesses = 0
        self.pairs = 0

    # -- ingestion ---------------------------------------------------------

    def observe(self, sequence: Sequence[Oid], pair_window: int) -> None:
        """Fold one committed transaction's access sequence in.

        Each access adds one unit of heat; each pair of accesses at most
        ``pair_window`` apart adds ``1 / distance`` of affinity weight —
        adjacent accesses (a pointer traversal) bind tighter than ones
        merely sharing a transaction.
        """
        heat = self.heat
        edges = self.edges
        n = len(sequence)
        for i, oid in enumerate(sequence):
            heat[oid] = heat.get(oid, 0.0) + 1.0
            self.accesses += 1
            for j in range(i + 1, min(i + 1 + pair_window, n)):
                other = sequence[j]
                if other == oid:
                    continue
                edge = (oid, other) if oid < other else (other, oid)
                edges[edge] = edges.get(edge, 0.0) + 1.0 / (j - i)
                self.pairs += 1
        if len(heat) > self.MAX_OBJECTS:
            self._prune(heat, self.MAX_OBJECTS * 3 // 4)
        if len(edges) > self.MAX_EDGES:
            self._prune(edges, self.MAX_EDGES * 3 // 4)

    def decay(self, factor: float) -> None:
        """Multiply every counter by ``factor``, dropping dust below
        1e-3 — old traffic fades, the maps stay bounded."""
        for table in (self.heat, self.edges):
            dead = []
            for key, value in table.items():
                value *= factor
                if value < 1e-3:
                    dead.append(key)
                else:
                    table[key] = value
            for key in dead:
                del table[key]

    def remap(self, mapping: Dict[Oid, Oid]) -> None:
        """Apply a reorganization's old→new mapping so the statistics
        keep describing the surviving addresses (same-key collisions
        merge additively)."""
        if not mapping:
            return
        heat: Dict[Oid, float] = {}
        for oid, value in self.heat.items():
            new = mapping.get(oid, oid)
            heat[new] = heat.get(new, 0.0) + value
        self.heat = heat
        edges: Dict[Edge, float] = {}
        for (a, b), weight in self.edges.items():
            a = mapping.get(a, a)
            b = mapping.get(b, b)
            if a == b:
                continue
            edge = (a, b) if a < b else (b, a)
            edges[edge] = edges.get(edge, 0.0) + weight
        self.edges = edges

    @staticmethod
    def _prune(table: Dict, keep: int) -> None:
        """Keep the ``keep`` heaviest entries (deterministic tie-break on
        the key itself)."""
        survivors = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        table.clear()
        table.update(survivors[:keep])

    # -- queries -----------------------------------------------------------

    def heat_of(self, oid: Oid) -> float:
        return self.heat.get(oid, 0.0)

    def partition_heat(self) -> Dict[int, float]:
        """Total heat per partition."""
        out: Dict[int, float] = {}
        for oid, value in self.heat.items():
            out[oid.partition] = out.get(oid.partition, 0.0) + value
        return out

    def partition_edges(self, partition_id: int) -> List[Tuple[Edge, float]]:
        """Affinity edges with *both* endpoints in ``partition_id``."""
        return [(edge, weight) for edge, weight in self.edges.items()
                if edge[0].partition == partition_id
                and edge[1].partition == partition_id]

    def adjacency(self, oids: Iterable[Oid]) -> Dict[Oid, Dict[Oid, float]]:
        """Neighbor map restricted to ``oids`` (both endpoints inside)."""
        members = set(oids)
        out: Dict[Oid, Dict[Oid, float]] = {}
        for (a, b), weight in self.edges.items():
            if a in members and b in members:
                out.setdefault(a, {})[b] = weight
                out.setdefault(b, {})[a] = weight
        return out

    def top_hot(self, n: int = 10) -> List[Tuple[Oid, float]]:
        return sorted(self.heat.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def top_edges(self, n: int = 10) -> List[Tuple[Edge, float]]:
        return sorted(self.edges.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


class ClusterTracer(Probe):
    """The engine-side probe: buffers per-transaction access sequences
    and folds them into the :class:`AffinityGraph` at commit.

    Subscribe with ``engine.subscribe(ClusterTracer())`` *before* the
    traced transactions begin (each :class:`~repro.txn.Transaction`
    reads the subscribers when it begins).  System transactions — the
    reorganizer's own — are never traced: the reorganizer touching every
    object of a partition is maintenance, not workload heat.  Aborted
    transactions are discarded whole; a retried walk counts once, when
    it finally commits.  A reorganization that finishes remaps the
    statistics to the addresses its objects moved to.
    """

    #: Every ``DECAY_EVERY`` commits all counters are multiplied by
    #: ``DECAY``: old traffic fades.
    DECAY = 0.5
    DECAY_EVERY = 512

    def __init__(self, pair_window: int = 3):
        if pair_window < 1:
            raise ValueError("pair_window must be >= 1")
        self.pair_window = pair_window
        self.graph = AffinityGraph()
        self.commits = 0
        self.aborts = 0
        self._open: Dict[int, List[Oid]] = {}

    # -- probe events (hot path: keep them tiny) ---------------------------

    def access(self, txn, action: str, oid: Oid) -> None:
        if txn.system:
            return
        seq = self._open.get(txn.tid)
        if seq is None:
            seq = self._open[txn.tid] = []
        seq.append(oid)

    def txn_end(self, txn) -> None:
        sequence = self._open.pop(txn.tid, None)
        if sequence is None:
            return
        if txn.status.value != "committed":
            self.aborts += 1
            return
        self.graph.observe(sequence, self.pair_window)
        self.commits += 1
        if self.commits % self.DECAY_EVERY == 0:
            self.graph.decay(self.DECAY)

    def reorg(self, reorganizer, event: str, info: dict) -> None:
        if event == "finished":
            self.graph.remap(reorganizer.stats.mapping)
