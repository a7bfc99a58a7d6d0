"""The clustering advisor: when to reorganize, and which partition.

The paper leaves partition selection to the driving utility (§2, citing
[CWZ94]).  This advisor blends the space-based signal — the partition's
page fragmentation — with a workload-based one: a partition whose *hot,
co-accessed* objects are scattered over many pages has a clustering
payoff a purely space-based score cannot see.  The combined utility

    score(p) = fragmentation(p) + scatter(p) * heat_share(p)

keeps both drivers in one number: ``scatter`` is the fraction of the
partition's intra-partition affinity weight whose endpoints live on
*different* pages (0 = perfectly clustered, 1 = fully scattered), and
``heat_share`` is the partition's share of all traced heat — a scattered
but cold partition is not worth reorganizing.  A partition is worth
reorganizing when its score is positive.

All ranking is deterministic: equal scores break toward the lower
partition id, so repeated runs over identical statistics recommend the
same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from .tracing import AffinityGraph


@dataclass
class Advice:
    """One partition's combined reorganization utility."""

    partition_id: int
    score: float
    scatter: float
    heat_share: float
    fragmentation: float
    #: Intra-partition affinity weight observed (the evidence base).
    affinity_weight: float

    def describe(self) -> str:
        return (f"partition {self.partition_id}: score {self.score:.3f} "
                f"(scatter {self.scatter:.2f} x heat {self.heat_share:.2f}"
                f" + frag {self.fragmentation:.2f})")


class ClusteringAdvisor:
    """Ranks partitions by combined clustering + compaction payoff."""

    def __init__(self, graph: AffinityGraph):
        self.graph = graph

    def scatter(self, engine, partition_id: int) -> float:
        """Fraction of intra-partition affinity weight crossing pages."""
        total = 0.0
        split = 0.0
        store = engine.store
        for (a, b), weight in self.graph.partition_edges(partition_id):
            if not (store.exists(a) and store.exists(b)):
                continue
            total += weight
            if a.page != b.page:
                split += weight
        return split / total if total else 0.0

    def advice_for(self, engine, partition_id: int) -> Advice:
        partition_heat = self.graph.partition_heat()
        total_heat = sum(partition_heat.values())
        heat_share = (partition_heat.get(partition_id, 0.0) / total_heat
                      if total_heat else 0.0)
        scatter = self.scatter(engine, partition_id)
        fragmentation = engine.store.stats(partition_id).fragmentation
        affinity = sum(w for _, w in
                       self.graph.partition_edges(partition_id))
        return Advice(partition_id=partition_id,
                      score=fragmentation + scatter * heat_share,
                      scatter=scatter, heat_share=heat_share,
                      fragmentation=fragmentation,
                      affinity_weight=affinity)

    def rank(self, engine,
             candidates: Optional[Iterable[int]] = None) -> List[Advice]:
        pids = sorted(candidates if candidates is not None
                      else engine.store.partition_ids())
        advices = [self.advice_for(engine, pid) for pid in pids]
        advices.sort(key=lambda a: (-a.score, a.partition_id))
        return advices

    def recommend(self, engine,
                  candidates: Optional[Iterable[int]] = None
                  ) -> Optional[Advice]:
        """The most deserving partition, or ``None`` when no score is
        positive (no reason to reorganize)."""
        ranked = self.rank(engine, candidates)
        if not ranked or ranked[0].score <= 0.0:
            return None
        return ranked[0]

    def claims(self, engine, count: int,
               candidates: Optional[Iterable[int]] = None) -> List[int]:
        """The claim queue for a reorganizer fleet: up to ``count``
        partition ids in recommendation order.

        Partitions with a positive score come first (highest payoff
        first); if fewer than ``count`` qualify the queue is padded with
        the remaining candidates in rank order, so a fleet told to
        reorganize N partitions always gets N deterministic claims even
        on a cold (untraced) advisor.
        """
        ranked = self.rank(engine, candidates)
        qualified = [a.partition_id for a in ranked if a.score > 0.0]
        if len(qualified) < count:
            qualified.extend(a.partition_id for a in ranked
                             if a.partition_id not in qualified)
        return qualified[:count]
