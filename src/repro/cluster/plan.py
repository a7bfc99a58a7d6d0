"""Clustering-driven relocation plans.

The reorganizers stay policy-free (paper §2): a plan answers *where*
migrated objects go.  :class:`AffinityClusteringPlan` closes the loop
from on-line statistics to placement — at ``prepare`` time it asks the
DSTC clusterer to turn the traced affinity graph into page-sharing
clusters, then drives the stock :class:`~repro.core.plan.ClusteringPlan`
machinery with the resulting key, so IRA / the two-lock variant migrate
hot, co-accessed objects onto shared fresh pages without knowing any of
this is happening.

:class:`RandomPlacementPlan` is the experimental control: the same
migration traffic, but a seeded shuffle as the order — what placement
quality looks like when the reorganizer runs with no policy at all.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.plan import ClusteringPlan, RelocationPlan
from ..storage.oid import Oid
from .policies import DSTCClusterer, objects_per_page
from .tracing import AffinityGraph


def _unprepared(oid: Oid):
    raise RuntimeError("AffinityClusteringPlan used before prepare()")


class AffinityClusteringPlan(ClusteringPlan):
    """Workload-driven re-clustering: place by traced heat + affinity.

    ``graph`` is a (typically live) :class:`AffinityGraph`; the placement
    is computed once, in ``prepare``, from the objects alive at that
    moment.  With ``target_partition`` the plan evacuates into a
    clustered layout elsewhere; without it, it re-packs in place onto
    fresh pages (``fresh_only``) and drops the emptied ones.
    """

    def __init__(self, graph: AffinityGraph,
                 target_partition: Optional[int] = None):
        super().__init__(cluster_key=_unprepared,
                         target_partition=target_partition)
        self.graph = graph
        self.placement = None

    def prepare(self, engine, partition_id: int) -> None:
        super().prepare(engine, partition_id)
        self.placement = DSTCClusterer().build(
            list(engine.store.live_oids(partition_id)), self.graph,
            objects_per_page(engine, partition_id))
        self._key = self.placement.cluster_key


class RandomPlacementPlan(RelocationPlan):
    """Migrate in a seeded-random order onto fresh pages — the
    no-policy baseline the clustering experiment compares against."""

    fresh_only = True

    def __init__(self, seed: int = 0,
                 target_partition: Optional[int] = None):
        self.seed = seed
        self._target = target_partition

    def prepare(self, engine, partition_id: int) -> None:
        if self._target is None:
            engine.store.partition(partition_id).mark_relocation_floor()
        elif not engine.store.has_partition(self._target):
            engine.create_partition(self._target)

    def target_partition(self, oid: Oid) -> int:
        return self._target if self._target is not None else oid.partition

    def order(self, oids: List[Oid]) -> List[Oid]:
        shuffled = sorted(oids)
        random.Random(f"random-placement/{self.seed}").shuffle(shuffled)
        return shuffled

    def finalize(self, engine, partition_id: int) -> None:
        engine.store.partition(partition_id).drop_empty_pages()
