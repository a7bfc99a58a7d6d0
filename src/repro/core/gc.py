"""On-line garbage collection (paper §4.6).

Because the reorganizer already detects all live objects of a partition,
it doubles as a garbage collector; both collectors report
:class:`~repro.core.reorganizer.ReorgStats`:

* copying — the partitioned copying-collector shape of [YNY94], but
  working with *physical* references (the paper's headline "no previous
  algorithm possesses" ability): IRA with an
  :class:`~repro.core.plan.EvacuationPlan` and
  ``ReorgConfig(collect_garbage=True)``; live objects move out, the
  source partition is left empty and its space reclaimed
  (``Database.collect_garbage(method="copying")``).
* :class:`MarkAndSweepCollector` — the partitioned mark-and-sweep of
  [AFG95] as an in-place baseline: the same fuzzy-traversal + TRT
  machinery marks live objects on-line, then the sweep frees the rest.
  Nothing moves, so no reclustering benefit.
"""

from __future__ import annotations

from typing import Any, Generator, Set

from ..storage.oid import Oid
from .reorganizer import Reorganizer, sweep_unreachable
from .traversal import find_objects_and_approx_parents


class MarkAndSweepCollector(Reorganizer):
    """In-place partitioned mark-and-sweep [AFG95]: the reorganizer
    skeleton around no move at all.  IRA's safety protocol makes the TRT
    complete, the traversal (with its L2 reseeding) marks every live
    object, and the sweep frees the rest.  Live objects are counted in
    ``objects_found``, freed ones in ``garbage_collected``."""

    algorithm_name = "mark-sweep"
    uses_trt = True
    collects_garbage = True

    def _discover(self) -> Generator[Any, Any, None]:
        self._allocated = set(self.engine.store.live_oids(self.partition_id))
        result = yield from find_objects_and_approx_parents(
            self.engine, self.partition_id, self.trt)
        self._live: Set[Oid] = set(result.objects)
        self.stats.objects_found = len(self._live)

    def _migrate_all(self) -> Generator[Any, Any, None]:
        self.stats.garbage_collected = yield from sweep_unreachable(
            self.engine, self.partition_id, self._allocated, self._live,
            self.trt)

    def _reclaim(self) -> Generator[Any, Any, None]:
        self.engine.store.partition(self.partition_id).drop_empty_pages()
        yield from ()
