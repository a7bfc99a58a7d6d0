"""repro.cluster — workload-driven dynamic clustering.

The missing driving operation of the source paper's §2: observe the
workload on-line (:mod:`tracing`), turn heat + co-access affinity into
page-sharing placements (:mod:`policies`), feed them to the stock
reorganizers through a relocation plan (:mod:`plan`), decide when and
where it pays off (:mod:`advisor`); ``repro bench clustering``
(:mod:`repro.bench.experiments`) measures that it does.
"""

from .advisor import Advice, ClusteringAdvisor
from .plan import AffinityClusteringPlan, RandomPlacementPlan
from .policies import (
    DSTCClusterer,
    GreedyHeatPacker,
    PLACEMENT_POLICIES,
    Placement,
    make_policy,
    objects_per_page,
)
from .tracing import AffinityGraph, ClusterTracer

__all__ = [
    "Advice",
    "AffinityClusteringPlan",
    "AffinityGraph",
    "ClusteringAdvisor",
    "ClusterTracer",
    "DSTCClusterer",
    "GreedyHeatPacker",
    "PLACEMENT_POLICIES",
    "Placement",
    "RandomPlacementPlan",
    "make_policy",
    "objects_per_page",
]
