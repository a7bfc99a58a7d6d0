"""Placement: from affinity statistics to page-sharing targets.

:class:`DSTCClusterer` is the dynamic, statistical, tunable family of
Darmont et al.'s comparison study of object-database clustering
techniques: seed a cluster at the hottest unplaced object, then greedily
absorb the unplaced neighbor with the strongest total affinity to the
cluster's current members, until the cluster fills a page.

It emits a :class:`Placement`, whose ``cluster_key`` feeds directly into
:class:`repro.core.plan.ClusteringPlan` — placed objects migrate cluster
by cluster onto shared fresh pages; cold (untraced) objects follow in
address order, packed after the hot set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..storage.oid import Oid
from ..storage.page import PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES
from .tracing import AffinityGraph

#: Sort key of an object under a placement: placed objects first, by
#: (cluster, rank); everything else after, in address order (the
#: ClusteringPlan tie-breaks equal keys by OID).
PlacementKey = Tuple[int, int, int]

_UNPLACED: PlacementKey = (1, 0, 0)


@dataclass
class Placement:
    """Page-sharing targets: an ordered list of object clusters."""

    per_page: int
    clusters: List[List[Oid]] = field(default_factory=list)
    _key_of: Dict[Oid, PlacementKey] = field(default_factory=dict)

    @classmethod
    def build(cls, per_page: int, clusters: List[List[Oid]]) -> "Placement":
        placement = cls(per_page=per_page, clusters=clusters)
        for index, cluster in enumerate(clusters):
            for rank, oid in enumerate(cluster):
                placement._key_of[oid] = (0, index, rank)
        return placement

    def cluster_key(self, oid: Oid) -> PlacementKey:
        return self._key_of.get(oid, _UNPLACED)

    def placed(self, oid: Oid) -> bool:
        return oid in self._key_of

    @property
    def placed_count(self) -> int:
        return len(self._key_of)


def objects_per_page(engine, partition_id: int) -> int:
    """How many of this partition's objects fit on one page, from the
    live-size average — the target cluster size."""
    stats = engine.store.stats(partition_id)
    if stats.live_objects == 0:
        return 1
    avg = stats.live_bytes / stats.live_objects + SLOT_ENTRY_BYTES
    usable = engine.store.partition(partition_id).page_size \
        - PAGE_HEADER_BYTES
    return max(1, int(usable // avg))


class DSTCClusterer:
    """Affinity-grown clusters in the DSTC style.

    Every candidate with affinity to a cluster's members may join it:
    there is no admission threshold.  Ties break deterministically —
    strongest affinity first, then hotter, then lower OID.
    """

    def build(self, oids: List[Oid], graph: AffinityGraph,
              per_page: int) -> Placement:
        adjacency = graph.adjacency(oids)
        seeds = sorted((oid for oid in oids if graph.heat_of(oid) > 0.0),
                       key=lambda oid: (-graph.heat_of(oid), oid))
        unplaced = set(seeds)
        clusters: List[List[Oid]] = []
        for seed in seeds:
            if seed not in unplaced:
                continue
            unplaced.discard(seed)
            cluster = [seed]
            # Affinity of every candidate to the cluster so far.
            pull: Dict[Oid, float] = {}
            for other, weight in adjacency.get(seed, {}).items():
                if other in unplaced:
                    pull[other] = pull.get(other, 0.0) + weight
            while len(cluster) < per_page and pull:
                best = min(pull,
                           key=lambda o: (-pull[o], -graph.heat_of(o), o))
                del pull[best]
                unplaced.discard(best)
                cluster.append(best)
                for other, weight in adjacency.get(best, {}).items():
                    if other in unplaced:
                        pull[other] = pull.get(other, 0.0) + weight
            clusters.append(cluster)
        return Placement.build(per_page, clusters)
