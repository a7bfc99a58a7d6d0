"""On-line garbage collection (paper §4.6).

Because the reorganizer already detects all live objects of a partition,
it doubles as a garbage collector:

* :class:`CopyingGarbageCollector` — the partitioned copying-collector
  shape of [YNY94], but working with *physical* references (the paper's
  headline "no previous algorithm possesses" ability): run IRA with an
  evacuation plan and garbage collection on; live objects move out, the
  source partition is left empty and its space reclaimed.
* :class:`MarkAndSweepCollector` — the partitioned mark-and-sweep of
  [AFG95] as an in-place baseline: the same fuzzy-traversal + TRT
  machinery marks live objects on-line, then the sweep frees the rest.
  Nothing moves, so no reclustering benefit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Set

from ..config import ReorgConfig
from ..storage.oid import Oid
from .ira import IncrementalReorganizer
from .plan import EvacuationPlan
from .reorganizer import Reorganizer, ReorgStats, sweep_unreachable
from .traversal import find_objects_and_approx_parents


@dataclass
class GcStats:
    algorithm: str = "gc"
    partition_id: int = -1
    started_ms: float = 0.0
    finished_ms: float = 0.0
    live_objects: int = 0
    reclaimed_objects: int = 0
    reclaimed_bytes: int = 0
    trt_peak: int = 0

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms


class CopyingGarbageCollector:
    """Evacuate live objects to ``target_partition``; reclaim the source."""

    algorithm_name = "copying-gc"

    def __init__(self, engine, partition_id: int, target_partition: int,
                 reorg_config: ReorgConfig = None):
        cfg = reorg_config or ReorgConfig()
        cfg.collect_garbage = True
        self.engine = engine
        self.partition_id = partition_id
        self.reorganizer = IncrementalReorganizer(
            engine, partition_id, plan=EvacuationPlan(target_partition),
            reorg_config=cfg)
        self.stats = GcStats(algorithm=self.algorithm_name,
                             partition_id=partition_id)

    def run(self) -> Generator[Any, Any, GcStats]:
        self.stats.started_ms = self.engine.sim.now
        before = self.engine.store.stats(self.partition_id)
        reorg_stats: ReorgStats = yield from self.reorganizer.run()
        after = self.engine.store.stats(self.partition_id)
        self.stats.live_objects = reorg_stats.objects_migrated
        self.stats.reclaimed_objects = reorg_stats.garbage_collected
        self.stats.reclaimed_bytes = max(
            0, before.capacity_bytes - after.capacity_bytes)
        self.stats.finished_ms = self.engine.sim.now
        return self.stats

    @property
    def mapping(self):
        return self.reorganizer.stats.mapping


class MarkAndSweepCollector(Reorganizer):
    """In-place partitioned mark-and-sweep [AFG95]: the reorganizer
    skeleton around no move at all.  IRA's safety protocol makes the TRT
    complete, the traversal (with its L2 reseeding) marks every live
    object, and the sweep frees the rest."""

    algorithm_name = "mark-sweep"
    uses_trt = True

    def __init__(self, engine, partition_id: int):
        super().__init__(engine, partition_id)
        self.stats = GcStats(algorithm=self.algorithm_name,
                             partition_id=partition_id)
        self._allocated: Set[Oid] = set()
        self._live: Set[Oid] = set()

    def _discover(self) -> Generator[Any, Any, None]:
        self._allocated = set(self.engine.store.live_oids(self.partition_id))
        result = yield from find_objects_and_approx_parents(
            self.engine, self.partition_id, self.trt)
        self._live = set(result.objects)
        self.stats.live_objects = len(self._live)

    def _migrate_all(self) -> Generator[Any, Any, None]:
        store = self.engine.store

        def note(oid: Oid) -> None:
            self.stats.reclaimed_bytes += len(store.read_raw(oid))
            self.stats.reclaimed_objects += 1
        yield from sweep_unreachable(self.engine, self.partition_id,
                                     self._allocated, self._live, self.trt,
                                     note)

    def _reclaim(self) -> Generator[Any, Any, None]:
        self.engine.store.partition(self.partition_id).drop_empty_pages()
        yield from ()
