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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from ..config import WorkloadConfig
from ..storage import ObjectImage
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


def build_database(engine, config: WorkloadConfig) -> GraphLayout:
    """Create partitions, objects, references, ERTs, and a checkpoint.

    Bulk-loads directly into the store (no WAL records — the checkpoint
    taken at the end is the recovery baseline, as a freshly-loaded real
    system would do), then populates the ERTs to match.
    """
    rng = random.Random(config.seed)
    layout = GraphLayout(config=config)
    engine.create_partition(ROOT_PARTITION)
    for pid in range(1, config.num_partitions + 1):
        engine.create_partition(pid)

    # Pass 1: allocate every tree node with empty reference slots.
    # nodes[pid][cluster][i] is node i of the cluster in BFS order
    # (node i's children are nodes 4i+1 .. 4i+4).
    nodes: Dict[int, List[List[Oid]]] = {}
    capacity = node_ref_capacity(config)
    for pid in range(1, config.num_partitions + 1):
        clusters: List[List[Oid]] = []
        for _ in range(config.clusters_per_partition):
            cluster: List[Oid] = []
            for _ in range(config.cluster_size):
                payload = random_bytes(rng, config.payload_bytes)
                image = ObjectImage.new(capacity, payload=payload)
                cluster.append(engine.store.allocate_object(pid, image))
            clusters.append(cluster)
        nodes[pid] = clusters
        layout.cluster_roots[pid] = [cluster[0] for cluster in clusters]

    # Pass 2: tree edges.
    for pid, clusters in nodes.items():
        for cluster in clusters:
            for index, oid in enumerate(cluster):
                for child_slot in range(config.branching):
                    child_index = config.branching * index + child_slot + 1
                    if child_index >= config.cluster_size:
                        break
                    _set_ref(engine, oid, child_slot, cluster[child_index])

    # Pass 3: glue edges — from each node to a node in another cluster,
    # in another partition with probability GLUEFACTOR.
    partition_ids = list(nodes)
    for pid, clusters in nodes.items():
        for cluster_index, cluster in enumerate(clusters):
            for oid in cluster:
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
                _set_ref(engine, oid, glue_slot(config), target)

    # Pass 4: root stubs — the persistent roots, one per cluster, living
    # in the root partition.
    for pid in range(1, config.num_partitions + 1):
        stubs: List[Oid] = []
        for root in layout.cluster_roots[pid]:
            image = ObjectImage.new(1, refs=[root])
            stub = engine.store.allocate_object(ROOT_PARTITION, image)
            stubs.append(stub)
            engine.ert_for(pid).add(root, stub)
        layout.root_stubs[pid] = stubs

    engine.unlogged_base = True  # the bulk load above wrote no WAL records
    engine.take_checkpoint()
    return layout


def _set_ref(engine, parent: Oid, slot: int, child: Oid) -> None:
    """Raw bulk-load reference write; maintains the ERT directly."""
    engine.store.set_ref(parent, slot, child)
    if child.partition != parent.partition:
        engine.ert_for(child.partition).add(child, parent)
