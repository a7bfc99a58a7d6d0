"""Transactions.

Implements the system model of paper §2:

* strict 2PL by default — every lock is held until commit/abort — with an
  optional short-duration-lock mode (§4.1) in which shared locks are
  released as soon as the access completes;
* WAL — the combined undo/redo record is appended *before* the physical
  update is applied, so the log analyzer sees pointer deletes before they
  happen and pointer inserts before the lock is released;
* the reference protocol — a transaction may only use a reference it
  copied out of an object it read (or to an object it created).  The
  engine tracks each transaction's *local memory* (the references it
  holds) both to enforce the protocol and because Lemma 3.3's guarantee
  is about exactly this set.

All blocking methods are generators driven by the simulation kernel;
every object access also charges simulated CPU per the cost model.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional, Set, Tuple

from ..concurrency import LockMode
from ..errors import ReferenceProtocolError, TransactionStateError
from ..sim import Hold
from ..storage import ObjectImage, Oid
from ..wal.apply import apply_record, invert_record
from ..wal.records import (
    AbortRecord,
    ClrRecord,
    CommitRecord,
    LogRecord,
    ObjCreateRecord,
    ObjDeleteRecord,
    PayloadUpdateRecord,
    RefUpdateRecord,
    PHYSICAL_KINDS,
)


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction against the storage engine.

    Obtain instances via :meth:`TransactionManager.begin`; drive the
    generator methods with ``yield from`` inside a simulation process.
    """

    def __init__(self, engine, tid: int, system: bool = False):
        self.engine = engine
        self.tid = tid
        self.system = system
        # Engine-wide, not per transaction: IRA's §4.1 wait for early
        # lock releasers is gated on the same config field.
        self.strict = engine.config.strict_transactions
        self.status = TxnStatus.ACTIVE
        self.last_lsn = 0
        # The explore harness installs its recorder before any
        # transaction begins, so snapshotting it here is safe and saves
        # an attribute chase per access on the hot paths.  Same for the clustering
        # tracer — which additionally never traces system transactions
        # (a reorganizer touching every object is not workload heat).
        self._history = engine.history
        self._tracer = None if system else engine.tracer
        #: References in the transaction's local memory (§2 model).
        self.local_refs: Set[Oid] = set()
        #: Objects this transaction created (allowed to reference freely).
        self.created: Set[Oid] = set()
        self.ops = 0
        #: Why the transaction aborted (``None`` while active/committed):
        #: ``"deadlock"`` for timeout/waits-for victims, ``"user"`` for
        #: everything else.  The manager aggregates these per reason.
        self.abort_reason: Optional[str] = None

    # -- locking -------------------------------------------------------------

    def lock(self, oid: Oid, mode: LockMode) -> Generator[Any, Any, None]:
        """Acquire a lock (raises ``LockTimeoutError`` on deadlock)."""
        self._require_active()
        yield from self.engine.locks.acquire(self.tid, oid, mode)

    def unlock(self, oid: Oid) -> None:
        """Early release — only meaningful in short-duration-lock mode."""
        self.engine.locks.release(self.tid, oid)

    # -- reads ----------------------------------------------------------------

    def read(self, oid: Oid,
             for_update: bool = False) -> Generator[Any, Any, ObjectImage]:
        """Lock (S, or X with ``for_update``), read the object, and copy
        its references into the transaction's local memory.

        In short-lock mode a plain S lock is dropped right after the
        access — the transaction keeps the references it copied, which is
        precisely the hazard the TRT plus the lock-history wait (§4.1)
        guard against.  X locks are held to transaction end even in
        short-lock mode so rollback never needs to re-acquire them.
        """
        if self.status is not TxnStatus.ACTIVE:
            self._require_active()
        engine = self.engine
        # Flattened fast paths: the uncontended lock grant, the
        # memory-resident page fix and the CPU charge would each cost a
        # generator per access through the generic helpers — this is the
        # hottest method in the benchmarks.  (The status check and the
        # history/tracer notes are inlined here for the same reason.)
        mode = LockMode.X if for_update else LockMode.S
        if not engine.locks.try_acquire(self.tid, oid, mode):
            yield from engine.locks.acquire_wait(self.tid, oid, mode)
        if engine.buffer is not None:
            yield from engine.fix_page(oid)
        if engine._charge_access:
            yield engine._access_hold
        # One cache lookup yields both the private image copy and the
        # store's shared children tuple (cheaper than re-scanning the
        # copy's ref slots per read).
        image, children = engine.store.read_object_with_children(oid)
        self.local_refs.update(children)
        self.local_refs.add(oid)
        if self._history is not None:
            self._history.record(self, "r", oid)
        if self._tracer is not None:
            self._tracer.note(self.tid, oid)
        self.ops += 1
        if not self.strict and not for_update and not \
                engine.locks.holds(self.tid, oid, LockMode.X):
            self.unlock(oid)
        return image

    def read_refs(self, oid: Oid, for_update: bool = False
                  ) -> Generator[Any, Any, Tuple[Oid, ...]]:
        """:meth:`read`, but returns only the object's non-null children
        — the store's shared tuple, which callers must not mutate.

        Pointer chasing needs nothing else from the object, and the
        random walk is nothing but pointer chasing: skipping the private
        image copy per step is a large fraction of the walk's Python
        cost.  Locking, CPU charges, local-memory and history semantics
        are identical to :meth:`read`.
        """
        if self.status is not TxnStatus.ACTIVE:
            self._require_active()
        engine = self.engine
        mode = LockMode.X if for_update else LockMode.S
        if not engine.locks.try_acquire(self.tid, oid, mode):
            yield from engine.locks.acquire_wait(self.tid, oid, mode)
        if engine.buffer is not None:
            yield from engine.fix_page(oid)
        if engine._charge_access:
            yield engine._access_hold
        children = engine.store.children_tuple(oid)
        self.local_refs.update(children)
        self.local_refs.add(oid)
        if self._history is not None:
            self._history.record(self, "r", oid)
        if self._tracer is not None:
            self._tracer.note(self.tid, oid)
        self.ops += 1
        if not self.strict and not for_update and not \
                engine.locks.holds(self.tid, oid, LockMode.X):
            self.unlock(oid)
        return children

    # -- updates ---------------------------------------------------------------

    def write_payload(self, oid: Oid, offset: int,
                      data: bytes) -> Generator[Any, Any, None]:
        """Overwrite payload bytes in place (logged, undoable)."""
        if self.status is not TxnStatus.ACTIVE:
            self._require_active()
        engine = self.engine
        if not engine.locks.try_acquire(self.tid, oid, LockMode.X):
            yield from engine.locks.acquire_wait(self.tid, oid, LockMode.X)
        if engine.buffer is not None:
            yield from engine.fix_page(oid, dirty=True)
        if engine._charge_update:
            yield engine._update_hold
        store = engine.store
        before = store.get_payload(oid)[offset:offset + len(data)]
        if self._history is not None:
            self._history.record(self, "w", oid)
        if self._tracer is not None:
            self._tracer.note(self.tid, oid)
        # WAL append then direct apply: forward processing always appends
        # the newest LSN, so ``apply_record``'s redo test (page LSN >=
        # record LSN -> skip) can never fire here — go straight to the
        # store operation the record describes.
        record = PayloadUpdateRecord(
            self.tid, self.last_lsn, oid=oid, offset=offset,
            before=bytes(before), after=bytes(data))
        self.last_lsn = lsn = engine.log.append(record)
        store.set_payload_bytes(oid, offset, record.after)
        store.set_page_lsn(oid, lsn)

    def insert_ref(self, parent: Oid, child: Oid,
                   slot: Optional[int] = None) -> Generator[Any, Any, int]:
        """Store a reference to ``child`` into ``parent`` (pointer insert).

        Uses the first free reference slot unless ``slot`` is given.
        Returns the slot used.
        """
        self._require_active()
        self._check_ref_source(child)
        yield from self.lock(parent, LockMode.X)
        yield from self.engine.fix_page(parent, dirty=True)
        yield from self._cpu(self.engine.config.cpu_update_extra_ms)
        image = self.engine.store.read_object(parent)
        use_slot = slot if slot is not None else image.free_slot()
        old = image.get_ref(use_slot)
        if old is not None:
            raise ReferenceProtocolError(
                f"slot {use_slot} of {parent} already holds {old}")
        self._note("w", parent)
        self._log_and_apply(RefUpdateRecord(
            self.tid, self.last_lsn, parent=parent, slot=use_slot,
            old_child=None, new_child=child))
        return use_slot

    def delete_ref(self, parent: Oid, child: Oid) -> Generator[Any, Any, int]:
        """Delete the (first) reference to ``child`` out of ``parent``.

        The transaction retains the reference in its local memory — the
        Fig. 2 scenario the TRT exists to handle.
        """
        self._require_active()
        yield from self.lock(parent, LockMode.X)
        yield from self.engine.fix_page(parent, dirty=True)
        yield from self._cpu(self.engine.config.cpu_update_extra_ms)
        image = self.engine.store.read_object(parent)
        slots = image.slots_referencing(child)
        if not slots:
            raise ReferenceProtocolError(
                f"{parent} holds no reference to {child}")
        use_slot = slots[0]
        self.local_refs.add(child)
        self._note("w", parent)
        self._log_and_apply(RefUpdateRecord(
            self.tid, self.last_lsn, parent=parent, slot=use_slot,
            old_child=child, new_child=None))
        return use_slot

    def update_ref(self, parent: Oid, slot: int,
                   new_child: Optional[Oid],
                   cpu_ms: Optional[float] = None
                   ) -> Generator[Any, Any, None]:
        """Atomically re-point one reference slot (delete + insert).

        ``cpu_ms`` overrides the default CPU charge — the reorganizer
        consolidates its per-migration CPU into one burst and passes 0
        here.
        """
        if self.status is not TxnStatus.ACTIVE:
            self._require_active()
        if new_child is not None:
            self._check_ref_source(new_child)
        engine = self.engine
        if not engine.locks.try_acquire(self.tid, parent, LockMode.X):
            yield from engine.locks.acquire_wait(self.tid, parent,
                                                 LockMode.X)
        if engine.buffer is not None:
            yield from engine.fix_page(parent, dirty=True)
        cost = (engine.config.cpu_update_extra_ms
                if cpu_ms is None else cpu_ms)
        if cost > 0:
            yield (engine._update_hold if cpu_ms is None
                   else Hold(engine.cpu, cost))
        store = engine.store
        old_child = store.get_ref(parent, slot)
        if old_child is not None:
            self.local_refs.add(old_child)
        if self._history is not None:
            self._history.record(self, "w", parent)
        if self._tracer is not None:
            self._tracer.note(self.tid, parent)
        # Same append-then-direct-apply shortcut as ``write_payload``.
        record = RefUpdateRecord(
            self.tid, self.last_lsn, parent=parent, slot=slot,
            old_child=old_child, new_child=new_child)
        self.last_lsn = lsn = engine.log.append(record)
        store.set_ref(parent, slot, new_child)
        store.set_page_lsn(parent, lsn)

    def create_object(self, partition_id: int, image: ObjectImage,
                      fresh_only: bool = False,
                      cpu_ms: Optional[float] = None
                      ) -> Generator[Any, Any, Oid]:
        """Allocate and initialize a new object; returns its address."""
        self._require_active()
        for child in image.children():
            self._check_ref_source(child)
        yield from self._cpu(self.engine.config.cpu_update_extra_ms
                             if cpu_ms is None else cpu_ms)
        store, locks = self.engine.store, self.engine.locks
        while True:
            oid = store.allocate_object(partition_id, image,
                                        fresh_only=fresh_only)
            if locks.try_acquire(self.tid, oid, LockMode.X):
                break
            # The slot was freed by a deleter that is still active: it
            # holds X until it ends, and its rollback puts the old bytes
            # back.  Nothing is logged yet, so take ours out before
            # waiting — a timeout or an abort must find nothing to undo.
            store.free_object(oid)
            yield from locks.acquire_wait(self.tid, oid, LockMode.X)
            # The deleter ended; allocate afresh.  If its delete stuck the
            # allocator offers the slot again and the lock is re-entrant;
            # if it rolled back, the lock guards its object, not ours.
            if store.exists(oid):
                locks.release(self.tid, oid)
        yield from self.engine.fix_page(oid, dirty=True)
        self._note("w", oid)
        self._log(ObjCreateRecord(self.tid, self.last_lsn, oid=oid,
                                  image=image.encode()))
        self.engine.store.set_page_lsn(oid, self.last_lsn)
        self.created.add(oid)
        self.local_refs.add(oid)
        return oid

    def replace_object(self, oid: Oid,
                       image: ObjectImage) -> Generator[Any, Any, None]:
        """Rewrite an object in place, possibly with a different size.

        Logged as a delete/create pair at the same address, so undo and
        redo compose correctly.  Raises ``PageFullError`` when the grown
        object no longer fits in its page — the schema-evolution
        motivation of paper §1: the object must then be *migrated*.
        """
        self._require_active()
        for child in image.children():
            self._check_ref_source(child)
        yield from self.lock(oid, LockMode.X)
        yield from self.engine.fix_page(oid, dirty=True)
        yield from self._cpu(self.engine.config.cpu_update_extra_ms)
        before = bytes(self.engine.store.read_raw(oid))
        # Apply first: an oversized image must fail *before* anything is
        # logged, leaving the transaction clean to continue.
        self.engine.store.replace_object(oid, image)
        self._note("w", oid)
        self._log(ObjDeleteRecord(self.tid, self.last_lsn, oid=oid,
                                  before_image=before))
        lsn = self._log(ObjCreateRecord(self.tid, self.last_lsn, oid=oid,
                                        image=image.encode()))
        self.engine.store.set_page_lsn(oid, lsn)

    def delete_object(self, oid: Oid,
                      cpu_ms: Optional[float] = None
                      ) -> Generator[Any, Any, None]:
        """Free an object's storage (logged, undoable)."""
        self._require_active()
        yield from self.lock(oid, LockMode.X)
        yield from self.engine.fix_page(oid, dirty=True)
        yield from self._cpu(self.engine.config.cpu_update_extra_ms
                             if cpu_ms is None else cpu_ms)
        before = self.engine.store.read_raw(oid)
        self._note("w", oid)
        self._log(ObjDeleteRecord(self.tid, self.last_lsn, oid=oid,
                                  before_image=bytes(before)))
        self.engine.store.free_object(oid)

    # -- completion ----------------------------------------------------------------

    def commit(self) -> Generator[Any, Any, None]:
        """Commit: log, force the log (group commit), release all locks."""
        self._require_active()
        lsn = self._log(CommitRecord(self.tid, self.last_lsn))
        yield from self.engine.log.flush(lsn)
        self.status = TxnStatus.COMMITTED
        self.engine.txns.finish(self)
        if self._tracer is not None:
            self._tracer.on_commit(self.tid)

    def abort(self, reason: str = "user") -> Generator[Any, Any, None]:
        """Roll back every change via the undo chain, writing CLRs.

        ``reason`` tags the abort for accounting (``"deadlock"`` when a
        lock timeout or waits-for victim triggered it) — it does not
        change rollback behaviour.
        """
        self._require_active()
        self.abort_reason = reason
        lsn = self.last_lsn
        while lsn:
            record = self.engine.log.read(lsn)
            if record.tid != self.tid:
                raise TransactionStateError(
                    f"undo chain of txn {self.tid} reached foreign {record}")
            if isinstance(record, ClrRecord):
                lsn = record.undo_next_lsn
                continue
            if record.kind in PHYSICAL_KINDS:
                yield from self._cpu(self.engine.config.cpu_undo_per_op_ms)
                inverse = invert_record(record)
                clr = ClrRecord(self.tid, self.last_lsn,
                                undo_next_lsn=record.prev_lsn,
                                undone_lsn=record.lsn,
                                action=inverse.encode())
                clr_lsn = self._log(clr)
                apply_record(self.engine.store, inverse, lsn=clr_lsn)
            lsn = record.prev_lsn
        self._log(AbortRecord(self.tid, self.last_lsn))
        self.status = TxnStatus.ABORTED
        self.engine.txns.finish(self)
        if self._tracer is not None:
            self._tracer.on_abort(self.tid)

    # -- helpers -----------------------------------------------------------------------

    def held_locks(self) -> Set[Oid]:
        return self.engine.locks.held_keys(self.tid)

    def _cpu(self, duration: float) -> Generator[Any, Any, None]:
        if duration > 0:
            yield from self.engine.cpu.use(duration)

    def _note(self, action: str, oid: Oid) -> None:
        """Feed one observed access into the engine's history recorder
        (``repro.explore``'s serializability oracle) and the clustering
        tracer (``repro.cluster``'s heat/affinity statistics); no-op
        otherwise."""
        if self._history is not None:
            self._history.record(self, action, oid)
        if self._tracer is not None:
            self._tracer.note(self.tid, oid)

    def _log(self, record: LogRecord) -> int:
        lsn = self.engine.log.append(record)
        self.last_lsn = lsn
        return lsn

    def _log_and_apply(self, record: LogRecord) -> None:
        """WAL: append first, then apply — atomically in simulated time."""
        lsn = self._log(record)
        apply_record(self.engine.store, record, lsn=lsn)

    def _check_ref_source(self, child: Oid) -> None:
        if self.system:
            return
        if child not in self.local_refs and child not in self.created:
            raise ReferenceProtocolError(
                f"txn {self.tid} uses {child} without having read a parent "
                f"of it or created it")

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"txn {self.tid} is {self.status.value}")

    def __repr__(self) -> str:
        kind = "sys" if self.system else "usr"
        return f"<Txn {self.tid} {kind} {self.status.value}>"
