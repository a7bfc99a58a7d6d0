"""The fuzzy traversal (paper §3.4, Fig. 3).

Finds every live object of a partition plus an *approximate* set of
parents for each, while user transactions keep running.  No locks are
taken — only a short latch per object while its references are read —
so the result is not transaction-consistent; the TRT makes it exact
later, one object at a time.

``find_objects_and_approx_parents`` is Fig. 3 verbatim: traverse from the
ERT's referenced objects (L1), then keep reseeding from TRT-referenced
objects not yet visited (L2) until none remain — which is what makes
Lemma 3.1 ("all live objects are encountered") hold even when the only
reference to a subtree was cut and may be reinserted.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set

from ..refs import TemporaryReferenceTable
from ..storage.oid import Oid


class TraversalResult:
    """Objects found in a partition and their intra-partition parents."""

    def __init__(self) -> None:
        #: Live objects in visit order (insertion-ordered).
        self.objects: Dict[Oid, None] = {}
        #: child -> set of parents *within the partition* seen during the
        #: traversal.  External parents come from the ERT at lock time.
        self.parents: Dict[Oid, Set[Oid]] = {}

    def visited(self, oid: Oid) -> bool:
        return oid in self.objects

    def ordered_objects(self) -> List[Oid]:
        return list(self.objects)

    def parents_of(self, child: Oid) -> Set[Oid]:
        return self.parents.get(child, set())


def fuzzy_traversal(engine, partition_id: int, seeds: List[Oid],
                    result: TraversalResult) -> Generator[Any, Any, None]:
    """One Fuzzy_Traversal call: DFS from ``seeds``, restricted to the
    partition, latching each object while its references are noted.

    Per-object CPU cost is paid through a :class:`CpuMeter`: the scan does
    not reschedule per object, it periodically yields the CPU after a few
    milliseconds of accumulated work.
    """
    from ..sim import CpuMeter

    cpu = CpuMeter(engine.cpu, chunk_ms=5.0)
    stack = [oid for oid in seeds if not result.visited(oid)]
    while stack:
        oid = stack.pop()
        if result.visited(oid) or oid.partition != partition_id:
            continue
        if not engine.store.exists(oid):
            continue  # freed since it was seeded (e.g. a stale TRT tuple)
        yield from engine.latches.latch(oid)
        try:
            if not engine.store.exists(oid):
                continue  # freed while we waited for the latch
            yield from engine.fix_page(oid)
            yield from cpu.charge(engine.config.cpu_traverse_ms)
            children = engine.store.children_of(oid)
        finally:
            engine.latches.unlatch(oid)
        result.objects[oid] = None
        for child in children:
            if child.partition != partition_id:
                continue
            result.parents.setdefault(child, set()).add(oid)
            if not result.visited(child):
                stack.append(child)
    yield from cpu.flush()


def find_objects_and_approx_parents(
        engine, partition_id: int,
        trt: TemporaryReferenceTable) -> Generator[Any, Any, TraversalResult]:
    """Fig. 3: Find_Objects_And_Approx_Parents."""
    result = TraversalResult()
    ert = engine.ert_for(partition_id)
    # L1: traverse from the ERT's referenced objects.
    yield from fuzzy_traversal(engine, partition_id,
                               list(ert.referenced_objects()), result)
    # L2: while some TRT-referenced object was missed, traverse from it.
    while True:
        missed = [oid for oid in trt.referenced_objects()
                  if not result.visited(oid) and engine.store.exists(oid)]
        if not missed:
            break
        yield from fuzzy_traversal(engine, partition_id, missed, result)
    return result
