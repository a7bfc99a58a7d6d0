"""One reorganizer skeleton around one relocation step.

Every algorithm moves an object the same way — the paper's
``Move_Object_And_Update_Refs`` (Fig. 5): copy it to where the plan
says, re-point each parent's reference slots at the copy, free the
source.  They differ only in what they lock around that move and when
they commit, their *lock footprint*:

==================  ==========================================  ===================
algorithm           locked around the move                      commits
==================  ==========================================  ===================
off-line (§3.1)     nothing: the whole database is quiescent    once, at the end
PQR (§5.1)          every external parent of the partition      once, at the end
IRA (§3)            the object and all of its parents           per batch (§4.3)
two-lock (§4.2)     the object (both addresses) and one parent  per parent update
MVCC merge          nothing a reader takes                      once, at the end
==================  ==========================================  ===================

The move's steps take no locks beyond the transaction operations' own
and charge no CPU: each footprint pays where its algorithm does.  The
§4.6 mark-and-sweep collector runs the same skeleton with no move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Set

from ..config import ReorgConfig
from ..errors import ReorganizationError
from ..storage.oid import Oid
from .plan import RelocationPlan


@dataclass
class ReorgStats:
    """What a reorganization run did; returned by ``run()``."""

    algorithm: str = "ira"
    partition_id: int = -1
    started_ms: float = 0.0
    finished_ms: float = 0.0
    objects_found: int = 0
    objects_migrated: int = 0
    garbage_collected: int = 0
    parent_patches: int = 0
    deadlock_retries: int = 0
    #: Total simulated time spent sleeping between deadlock retries.
    backoff_ms_total: float = 0.0
    max_locks_held: int = 0
    #: Lock acquisitions on objects outside the partition (the §7 metric
    #: the ParentLocalityPlan ordering minimizes).
    external_lock_acquisitions: int = 0
    trt_peak: int = 0
    checkpoints_taken: int = 0
    #: old address -> new address for every migrated object.
    mapping: Dict[Oid, Oid] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms


class Reorganizer:
    """Reorganize one partition: the skeleton every footprint runs.

    Subclasses supply the footprint through four hooks — the
    precondition it needs (:meth:`_precondition`), how it finds what to
    move (:meth:`_discover`), how it moves it (:meth:`_migrate_all`) and
    what it frees once the plan is finalized (:meth:`_reclaim`).
    """

    algorithm_name = ""
    #: Whether transactions run while the footprint traverses, so it
    #: needs the partition's TRT (IRA, PQR, mark-and-sweep).
    uses_trt = False

    def __init__(self, engine, partition_id: int,
                 plan: Optional[RelocationPlan] = None,
                 reorg_config: Optional[ReorgConfig] = None,
                 state_store=None, transform=None):
        self.engine = engine
        self.partition_id = partition_id
        self.plan = plan or RelocationPlan()
        self.cfg = reorg_config or ReorgConfig()
        #: Where progress goes (§4.4); tombstoned when the run completes.
        self.state_store = state_store
        #: Optional ``(oid, image) -> image`` hook applied to each object
        #: as it migrates — the schema-evolution use case of §1 (e.g.
        #: widening every object's payload).  The transform must preserve
        #: the reference slots; only the payload may change.
        self.transform = transform
        self.stats = ReorgStats(algorithm=self.algorithm_name,
                                partition_id=partition_id)
        self.trt = None
        # Log position of the TRT's activation: where a resume replays from.
        self._trt_lsn = 0
        self._resumed = False
        #: Observation hook ``probe(event, **info)`` for repro.explore;
        #: each algorithm names the events it fires.  Must not mutate
        #: reorganizer state.
        self.probe = None
        #: Pacing hook: a zero-arg callable returning a generator the
        #: migration loop drives between units of work.  The reorg
        #: governor (:mod:`repro.serve.governor`) uses it to delay or
        #: pause the worker when the serving layer's SLO is breached;
        #: ``None`` runs flat out.
        self.pacer = None

    def _probe(self, event: str, **info) -> None:
        if self.probe is not None:
            self.probe(event, **info)

    # -- the skeleton (Fig. 1) ----------------------------------------------------

    def run(self) -> Generator[Any, Any, ReorgStats]:
        engine = self.engine
        self._precondition()
        self.stats.started_ms = engine.sim.now
        if self.uses_trt and self.trt is None:
            # A resumed run arrives with its TRT rebuilt from the log.
            self._trt_lsn = engine.log.last_lsn
            self.trt = engine.activate_trt(self.partition_id)
        try:
            if not self._resumed:
                if self.uses_trt:
                    # §4.5: wait for transactions active at start so that
                    # every relevant pointer update is in the TRT.
                    yield from engine.txns.wait_for_quiesce()
                self.plan.prepare(engine, self.partition_id)
                yield from self._discover()
            yield from self._migrate_all()
            self.plan.finalize(engine, self.partition_id)
            yield from self._reclaim()
            if self.state_store is not None:
                # Tombstone the progress record: a crash after this point
                # must not resume a finished reorganization.
                self.state_store.clear()
        finally:
            if self.uses_trt:
                engine.deactivate_trt(self.partition_id)
        if self.uses_trt:
            self.stats.trt_peak = self.trt.stats.peak_size
        self.stats.finished_ms = engine.sim.now
        return self.stats

    def _precondition(self) -> None:
        """Raise when the footprint cannot be had on this engine."""

    def _discover(self) -> Generator[Any, Any, None]:
        yield from ()

    def _migrate_all(self) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def _reclaim(self) -> Generator[Any, Any, None]:
        yield from ()

    # -- the relocation step (Fig. 5) -------------------------------------------------

    def _image(self, oid: Oid):
        """What the copy of ``oid`` holds: its stored image, through the
        schema-evolution transform if there is one."""
        image = self.engine.store.read_object(oid)
        if self.transform is None:
            return image
        original_refs = [ref for _, ref in image.refs()]
        image = self.transform(oid, image)
        if [ref for _, ref in image.refs()] != original_refs:
            raise ReorganizationError(
                f"transform changed the references of {oid}")
        return image

    def _copy(self, txn, oid: Oid, image,
              fresh_only: Optional[bool] = None) -> Generator[Any, Any, Oid]:
        """Allocate ``oid``'s target where the plan puts it and write
        ``image`` there; returns the new address."""
        if fresh_only is None:
            fresh_only = self.plan.fresh_only
        return (yield from txn.create_object(
            self.plan.target_partition(oid), image, fresh_only=fresh_only,
            cpu_ms=0))

    def _patch(self, txn, holder: Oid, old: Oid, new: Oid, slots=None,
               charge: Optional[Callable] = None
               ) -> Generator[Any, Any, None]:
        """Re-point the ``slots`` of ``holder`` (default: every slot that
        references ``old``) at ``new``.  ``charge`` is paid
        ``cpu_ref_patch_ms`` before each slot; without it the footprint
        has paid for the patch already."""
        if slots is None:
            slots = self.engine.store.read_object(holder).slots_referencing(
                old)
        for slot in slots:
            if charge is not None:
                yield from charge(self.engine.config.cpu_ref_patch_ms)
            yield from txn.update_ref(holder, slot, new, cpu_ms=0)
            self.stats.parent_patches += 1

    def _relocate(self, txn, oid: Oid, new_oid: Oid,
                  parents: Iterable[Oid]) -> Generator[Any, Any, None]:
        """Finish a move inside one transaction: re-point every parent at
        ``new_oid``, then free ``oid``.  A self-reference lives in the
        copy by now."""
        for parent in parents:
            yield from self._patch(txn, new_oid if parent == oid else parent,
                                   oid, new_oid)
        yield from txn.delete_object(oid, cpu_ms=0)


def sweep_unreachable(engine, partition_id: int, allocated: Iterable[Oid],
                      live: Set[Oid], trt, note: Callable[[Oid], None]
                      ) -> Generator[Any, Any, None]:
    """Free what a traversal proved unreachable (§4.6), 32 objects per
    system transaction.

    Lemma 3.1: every live object was traversed, so anything allocated at
    traversal time, never visited and not created since the TRT was
    activated is garbage.  ``note(oid)`` runs before each free.
    """
    garbage = sorted(oid for oid in allocated
                     if oid not in live
                     and oid not in trt.created_since_activation
                     and engine.store.exists(oid))
    for start in range(0, len(garbage), 32):
        txn = engine.txns.begin(system=True, reorg_partition=partition_id)
        chunk = garbage[start:start + 32]
        yield from engine.cpu.use(
            engine.config.cpu_update_extra_ms * len(chunk))
        for oid in chunk:
            note(oid)
            yield from txn.delete_object(oid, cpu_ms=0)
        yield from txn.commit()
