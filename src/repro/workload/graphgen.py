"""The paper's object-graph generator (§5.2).

The database has NUMPARTITIONS partitions of NUMOBJS objects each.
Objects are organized into clusters of 85 — a complete 4-ary tree of
depth 3.  One extra edge from each node (the *glue* edge) points to a
node in another cluster, which lives in another partition with
probability GLUEFACTOR.

The cluster roots are the persistent roots.  We realize them as *root
stub* objects living in a dedicated root partition (partition 0), one per
cluster, each holding a single reference to its cluster root.  This gives
the exact PQR behaviour §5.3.1 describes: the persistent roots of a
partition are external to it, so quiescing the partition locks them and
stalls every thread whose walks start there.

Reference-slot layout of a tree node (fixed at creation):

* slots ``0 .. branching-1`` — tree children,
* slot ``branching``         — the glue edge,
* one spare slot             — room for workload reference inserts.

The load learns every address by a dry-run placement first
(:func:`planned_oids`), then places each object once, with its final
references: one ``allocate_many`` per partition, one checksum per page.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import WorkloadConfig
from ..storage import ObjectImage, Partition, payload_offset
from ..storage.oid import Oid

#: The root stubs (and nothing else) live in this partition.
ROOT_PARTITION = 0


def random_bytes(rng: random.Random, count: int) -> bytes:
    """``count`` random bytes, identical to
    ``bytes(rng.getrandbits(8) for _ in range(count))`` — the same values
    from the same Mersenne-Twister word stream (each ``getrandbits(8)``
    takes the top byte of one 32-bit word; ``getrandbits(32 * count)``
    draws the same words, assembled little-endian-word-wise, so slicing
    ``[3::4]`` recovers exactly those top bytes) — but in one C-level
    call instead of a Python call per byte."""
    if count == 0:
        return b""
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")[3::4]


@dataclass
class GraphLayout:
    """Addresses the workload driver needs, produced by ``build_database``."""

    config: WorkloadConfig
    #: partition id -> root stub OIDs (walk entry points for that home).
    root_stubs: Dict[int, List[Oid]] = field(default_factory=dict)
    #: partition id -> cluster root OIDs.
    cluster_roots: Dict[int, List[Oid]] = field(default_factory=dict)

    @property
    def data_partitions(self) -> List[int]:
        return sorted(self.cluster_roots)

    def copy(self) -> "GraphLayout":
        """A by-value copy: ``remap`` on one does not reach the other."""
        return GraphLayout(
            config=self.config,
            root_stubs={pid: list(oids)
                        for pid, oids in self.root_stubs.items()},
            cluster_roots={pid: list(oids)
                           for pid, oids in self.cluster_roots.items()})

    def remap(self, mapping: Dict[Oid, Oid]) -> None:
        """Apply a reorganization's old→new mapping to the layout."""
        for stubs in self.root_stubs.values():
            stubs[:] = [mapping.get(oid, oid) for oid in stubs]
        for roots in self.cluster_roots.values():
            roots[:] = [mapping.get(oid, oid) for oid in roots]


def glue_slot(config: WorkloadConfig) -> int:
    """Reference-slot index of a node's glue edge."""
    return config.branching


def node_ref_capacity(config: WorkloadConfig) -> int:
    """Tree children + glue edge + one spare slot."""
    return config.branching + 2


def planned_oids(partition_id: int, page_size: int, record_bytes: int,
                 count: int) -> List[Oid]:
    """Where ``count`` records of ``record_bytes`` land in a fresh
    partition: placement depends only on sizes, so zero-filled records
    on a scratch partition tell a loader every address in advance."""
    return Partition(partition_id, page_size).allocate_many(
        [bytes(record_bytes)] * count)


def build_database(engine, config: WorkloadConfig) -> GraphLayout:
    """Create partitions, objects, references, ERTs, and a checkpoint.

    Bulk-loads directly into the store (no WAL records — the checkpoint
    taken at the end is the recovery baseline, as a freshly-loaded real
    system would do), then populates the ERTs to match.
    """
    rng = random.Random(config.seed)
    layout = GraphLayout(config=config)
    store = engine.store
    engine.create_partition(ROOT_PARTITION)
    for pid in range(1, config.num_partitions + 1):
        engine.create_partition(pid)

    # Addresses first: nodes[pid][cluster][i] is node i of the cluster in
    # BFS order (node i's children are nodes 4i+1 .. 4i+4).
    capacity = node_ref_capacity(config)
    cluster_size = config.cluster_size
    nodes: Dict[int, List[List[Oid]]] = {}
    for pid in range(1, config.num_partitions + 1):
        oids = planned_oids(pid, store.page_size,
                            payload_offset(capacity) + config.payload_bytes,
                            config.clusters_per_partition * cluster_size)
        nodes[pid] = [oids[start:start + cluster_size]
                      for start in range(0, len(oids), cluster_size)]
        layout.cluster_roots[pid] = [cluster[0] for cluster in nodes[pid]]
    payloads = iter([random_bytes(rng, config.payload_bytes)
                     for clusters in nodes.values()
                     for cluster in clusters for _ in cluster])

    # Then each node once: tree children, then the glue edge — to a node
    # in another cluster, in another partition with probability GLUEFACTOR.
    partition_ids = list(nodes)
    branching = config.branching
    for pid, clusters in nodes.items():
        images: List[bytes] = []
        for cluster_index, cluster in enumerate(clusters):
            for index, oid in enumerate(cluster):
                target_pid = pid
                if len(partition_ids) > 1 and \
                        rng.random() < config.glue_factor:
                    target_pid = rng.choice(
                        [p for p in partition_ids if p != pid])
                choices = len(nodes[target_pid])
                target_cluster_index = rng.randrange(choices)
                if target_pid == pid and choices > 1:
                    while target_cluster_index == cluster_index:
                        target_cluster_index = rng.randrange(choices)
                target_cluster = nodes[target_pid][target_cluster_index]
                target = target_cluster[rng.randrange(len(target_cluster))]
                if target_pid != pid:
                    engine.ert_for(target_pid).add(target, oid)
                first = branching * index + 1
                refs: List[Optional[Oid]] = cluster[first:first + branching]
                refs += [None] * (branching - len(refs)) + [target, None]
                images.append(ObjectImage(refs, next(payloads)).encode())
        placed = store.partition(pid).allocate_many(images)
        assert placed == [oid for cluster in clusters for oid in cluster]

    # Root stubs — the persistent roots, one per cluster, living in the
    # root partition.
    stubs = iter(store.partition(ROOT_PARTITION).allocate_many(
        [ObjectImage.new(1, refs=[root]).encode()
         for pid in partition_ids for root in layout.cluster_roots[pid]]))
    for pid, roots in layout.cluster_roots.items():
        layout.root_stubs[pid] = [next(stubs) for _ in roots]
        for root, stub in zip(roots, layout.root_stubs[pid]):
            engine.ert_for(pid).add(root, stub)

    engine.unlogged_base = True  # the bulk load above wrote no WAL records
    engine.take_checkpoint()
    return layout
