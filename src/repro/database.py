"""The high-level public API.

:class:`Database` wraps an engine plus the conveniences a user wants for
the common flows — create partitions, run transactions, reorganize
on-line, compact, garbage-collect, crash and recover — without touching
the simulation kernel directly.  The examples are written against this
class; everything it does is also reachable through the lower layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

from .config import ReorgConfig, SystemConfig, WorkloadConfig
from .core import (
    CompactionPlan,
    EvacuationPlan,
    IncrementalReorganizer,
    MarkAndSweepCollector,
    OfflineReorganizer,
    PartitionQuiesceReorganizer,
    RelocationPlan,
    ReorgStats,
    TwoLockReorganizer,
)
from .engine import CrashImage, IntegrityReport, StorageEngine
from .mvcc import MergeReorganizer
from .sim import Simulator
from .storage import ObjectImage, Oid, PartitionStats
from .txn import Transaction
from .workload import GraphLayout, build_database

#: Registry of on-line/off-line reorganization algorithms by name.
REORGANIZERS: Dict[str, Callable] = {
    "ira": IncrementalReorganizer,
    "ira-2lock": TwoLockReorganizer,
    "pqr": PartitionQuiesceReorganizer,
    "offline": OfflineReorganizer,
    "mvcc-merge": MergeReorganizer,
}


@dataclass
class _LoadImage:
    """What a scratch loader leaves behind when it crashes right after
    the §5.2 bulk load — the flushed log (one CHECKPOINT record) and the
    load-time checkpoint, §4.4's recovery baseline — plus the layout.

    ``key`` is copies of the two configs, compared by value: a caller
    mutating the objects it passed in neither changes nor hides what was
    loaded.
    """

    key: Tuple[WorkloadConfig, SystemConfig]
    crash: CrashImage
    layout: GraphLayout


class Database:
    """An object database with physical references and on-line reorg."""

    def __init__(self, system: Optional[SystemConfig] = None,
                 engine: Optional[StorageEngine] = None):
        self.engine = engine or StorageEngine(system)

    # -- construction ---------------------------------------------------------------

    #: The load image of the most recent ``(workload, system)``.
    _load_image: Optional[_LoadImage] = None

    @classmethod
    def with_workload(cls, workload: Optional[WorkloadConfig] = None,
                      system: Optional[SystemConfig] = None
                      ) -> Tuple["Database", GraphLayout]:
        """A database pre-loaded with the paper's §5.2 object graph.

        The graph is loaded once per ``(workload, system)`` — §5.3 runs
        every algorithm against one loaded database — and every call,
        the loading one included, gets an engine restart-recovered from a
        private copy of that load's crash image, plus its own layout.
        """
        workload = workload or WorkloadConfig()
        system = system or SystemConfig()
        held = Database._load_image
        if held is None or held.key != (workload, system):
            loaded_workload, loaded_system = workload.copy(), system.copy()
            loader = StorageEngine(loaded_system)
            layout = build_database(loader, loaded_workload)
            held = Database._load_image = _LoadImage(
                (loaded_workload, loaded_system), loader.crash(), layout)
            del loader      # freed before the first engine is assembled
        image = CrashImage(held.crash.durable_log,
                           held.crash.snapshots.copy(), system)
        layout = held.layout.copy()
        layout.config = workload
        return cls(engine=StorageEngine.recover(image)), layout

    @classmethod
    def recover(cls, image: CrashImage,
                sim: Optional[Simulator] = None) -> "Database":
        """Restart recovery from a crash image."""
        return cls(engine=StorageEngine.recover(image, sim=sim))

    # -- plumbing ----------------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self.engine.sim

    @property
    def store(self):
        return self.engine.store

    def run(self, gen: Generator, name: str = "main") -> Any:
        """Drive a generator (transaction logic, reorganizer, …) to
        completion inside the simulator and return its result."""
        return self.sim.run_process(gen, name=name)

    def create_partition(self, partition_id: int) -> None:
        self.engine.create_partition(partition_id)

    def begin(self, system: bool = False) -> Transaction:
        return self.engine.txns.begin(system=system)

    # -- one-shot transactional helpers (each runs the simulator) ------------------------

    def execute(self, body: Callable[[Transaction], Generator]) -> Any:
        """Run ``body(txn)`` inside a committed transaction.

        ``body`` is a generator function receiving the transaction; its
        return value is returned.  On any exception the transaction is
        aborted and the exception re-raised.
        """
        def _wrapper():
            txn = self.begin()
            try:
                result = yield from body(txn)
            except BaseException:
                yield from txn.abort()
                raise
            yield from txn.commit()
            return result
        return self.run(_wrapper(), name="execute")

    def create_object(self, partition_id: int, ref_capacity: int,
                      payload: bytes = b"", refs=()) -> Oid:
        """Convenience: create one object in its own transaction."""
        image = ObjectImage.new(ref_capacity, payload=payload, refs=refs)

        def _body(txn):
            txn.local_refs.update(image.children())
            oid = yield from txn.create_object(partition_id, image)
            return oid
        return self.execute(_body)

    def read_object(self, oid: Oid) -> ObjectImage:
        """Direct (non-transactional) read, for inspection."""
        return self.store.read_object(oid)

    # -- reorganization -----------------------------------------------------------------

    def reorganize(self, partition_id: int, algorithm: str = "ira",
                   plan: Optional[RelocationPlan] = None,
                   reorg_config: Optional[ReorgConfig] = None) -> ReorgStats:
        """Reorganize a partition to completion (no concurrent load).

        For experiments with concurrent transactions use
        :class:`~repro.workload.WorkloadDriver` instead.
        """
        reorganizer = self.reorganizer(partition_id, algorithm, plan,
                                       reorg_config)
        return self.run(reorganizer.run(), name=f"reorg-{algorithm}")

    def reorganizer(self, partition_id: int, algorithm: str = "ira",
                    plan: Optional[RelocationPlan] = None,
                    reorg_config: Optional[ReorgConfig] = None,
                    **kwargs):
        """Construct (but do not run) a reorganizer by algorithm name."""
        try:
            factory = REORGANIZERS[algorithm]
        except KeyError:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(REORGANIZERS)}") from None
        return factory(self.engine, partition_id, plan=plan,
                       reorg_config=reorg_config, **kwargs)

    def compact(self, partition_id: int) -> ReorgStats:
        """On-line compaction: repack live objects, drop emptied pages."""
        return self.reorganize(partition_id, plan=CompactionPlan())

    def collect_garbage(self, partition_id: int, method: str = "copying",
                        target_partition: Optional[int] = None
                        ) -> ReorgStats:
        """On-line garbage collection (§4.6): ``"copying"`` evacuates the
        live objects to ``target_partition`` with IRA and frees the rest,
        ``"mark-sweep"`` frees the unreachable objects in place.  Live
        objects are counted in ``objects_found``, freed ones in
        ``garbage_collected``."""
        if method == "copying":
            if target_partition is None:
                target_partition = max(self.store.partition_ids()) + 1
            return self.reorganize(
                partition_id, plan=EvacuationPlan(target_partition),
                reorg_config=ReorgConfig(collect_garbage=True))
        if method != "mark-sweep":
            raise ValueError(f"unknown GC method {method!r}")
        collector = MarkAndSweepCollector(self.engine, partition_id)
        return self.run(collector.run(), name="gc-mark-sweep")

    # -- durability ------------------------------------------------------------------------

    def checkpoint(self) -> int:
        return self.engine.take_checkpoint()

    def crash(self) -> CrashImage:
        return self.engine.crash()

    # -- inspection --------------------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        return self.engine.verify_integrity()

    def partition_stats(self, partition_id: int) -> PartitionStats:
        return self.store.stats(partition_id)
