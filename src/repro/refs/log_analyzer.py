"""The log analyzer (paper §3.3).

"A simple mechanism to maintain the TRT and the ERT, as pointers are
updated, is to process the system logs by a separate process called log
analyzer as soon as they are handed over to the logging subsystem."

The analyzer subscribes to the log manager and consumes every record at
append time.  It maintains:

* the **ERT** of every partition, permanently — including across the
  reorganizer's own migrations, whose OBJ_CREATE / OBJ_DELETE /
  REF_UPDATE records describe exactly the ERT changes Fig. 5 requires;
* every **active TRT** — but only from *user* transactions: the
  reorganizer's own reference patches are not new parents it needs to
  chase (it made them), so system-transaction updates are skipped.

CLRs are analyzed through their inner action: a transaction abort that
reintroduces a deleted reference is thereby "treated as an insertion of a
reference" (§4.5), exactly as the paper requires.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..storage import ObjectImage
from ..storage.oid import Oid
from ..wal.records import (
    KIND_BEGIN,
    KIND_CLR,
    KIND_END,
    KIND_OBJ_CREATE,
    KIND_OBJ_DELETE,
    KIND_REF_UPDATE,
    LogRecord,
    ObjCreateRecord,
    ObjDeleteRecord,
    RefUpdateRecord,
)
from .ert import ExternalReferenceTable
from .trt import TemporaryReferenceTable

#: Record kinds that carry reference information the analyzer acts on.
ANALYZED_KINDS = frozenset({
    KIND_BEGIN, KIND_END, KIND_REF_UPDATE,
    KIND_OBJ_CREATE, KIND_OBJ_DELETE, KIND_CLR,
})


class LogAnalyzer:
    """Maintains ERTs and active TRTs from the log record stream."""

    def __init__(self, ert_for: Callable[[int], ExternalReferenceTable],
                 strict_2pl: bool = True):
        self._ert_for = ert_for
        self.strict_2pl = strict_2pl
        self._active_trts: Dict[int, TemporaryReferenceTable] = {}
        #: Active reorganizer transactions: tid -> partition they work on.
        #: That partition's TRT skips their updates; all other TRTs record
        #: them like any transaction's (concurrent reorganizations of
        #: referencing partitions must see each other's patches).
        self._reorg_owner: Dict[int, int] = {}
        self.records_processed = 0

    # -- TRT lifecycle ------------------------------------------------------------

    def activate_trt(self, trt: TemporaryReferenceTable) -> None:
        if trt.partition_id in self._active_trts:
            raise RuntimeError(
                f"a TRT is already active for partition {trt.partition_id}")
        self._active_trts[trt.partition_id] = trt

    def deactivate_trt(self, partition_id: int) -> None:
        self._active_trts.pop(partition_id, None)

    def trt(self, partition_id: int) -> TemporaryReferenceTable:
        return self._active_trts[partition_id]

    # -- record processing -----------------------------------------------------------

    def process(self, record: LogRecord) -> None:
        """Consume one log record (called synchronously at append time).

        Dispatches on the ``kind`` tag rather than ``isinstance`` chains:
        the analyzer sees *every* appended record, and the most frequent
        kinds (payload updates, commits) need no analysis at all.
        """
        self.records_processed += 1
        kind = record.kind
        if kind not in ANALYZED_KINDS:
            # Payload updates, commits and aborts — the bulk of the
            # stream — carry no reference information.
            return
        if kind == KIND_BEGIN:
            if record.is_system and record.owner_partition is not None:
                self._reorg_owner[record.tid] = record.owner_partition
        elif kind == KIND_END:
            self._reorg_owner.pop(record.tid, None)
            for trt in self._active_trts.values():
                trt.on_transaction_end(record.tid, self.strict_2pl)
        elif kind == KIND_REF_UPDATE:
            self._analyze_ref_update(record.tid, record.parent,
                                     record.old_child, record.new_child)
        elif kind == KIND_OBJ_CREATE:
            trt = self._active_trts.get(record.oid.partition)
            if trt is not None and not self._owned_by(record.tid,
                                                      record.oid.partition):
                trt.record_creation(record.oid)
            self._analyze_whole_object(record.tid, record.oid,
                                       record.image, created=True)
        elif kind == KIND_OBJ_DELETE:
            self._analyze_whole_object(record.tid, record.oid,
                                       record.before_image, created=False)
        elif kind == KIND_CLR:
            # Analyze the compensation through its inner action: an abort
            # that reintroduces a deleted reference is treated as an
            # insertion (§4.5).  The inner record carries the same tid.
            inner = record.decode_action()
            if isinstance(inner, RefUpdateRecord):
                self._analyze_ref_update(inner.tid, inner.parent,
                                         inner.old_child, inner.new_child)
            elif isinstance(inner, ObjCreateRecord):
                self._analyze_whole_object(inner.tid, inner.oid,
                                           inner.image, created=True)
            elif isinstance(inner, ObjDeleteRecord):
                self._analyze_whole_object(inner.tid, inner.oid,
                                           inner.before_image, created=False)

    # -- internals ----------------------------------------------------------------------

    def _analyze_ref_update(self, tid: int, parent: Oid, old_child, new_child):
        if old_child is not None:
            self._reference_deleted(tid, parent, old_child)
        if new_child is not None:
            self._reference_inserted(tid, parent, new_child)

    def _analyze_whole_object(self, tid: int, oid: Oid, image: bytes,
                              created: bool) -> None:
        for child in ObjectImage.decode(image).children():
            if created:
                self._reference_inserted(tid, oid, child)
            else:
                self._reference_deleted(tid, oid, child)

    def _owned_by(self, tid: int, partition_id: int) -> bool:
        """True iff ``tid`` is the reorganizer working on ``partition_id``."""
        return self._reorg_owner.get(tid) == partition_id

    def _reference_inserted(self, tid: int, parent: Oid, child: Oid) -> None:
        if parent.partition != child.partition:
            self._ert_for(child.partition).add(child, parent)
        trt = self._active_trts.get(child.partition)
        if trt is not None and not self._owned_by(tid, child.partition):
            trt.record_insert(child, parent, tid)

    def _reference_deleted(self, tid: int, parent: Oid, child: Oid) -> None:
        if parent.partition != child.partition:
            self._ert_for(child.partition).remove(child, parent)
        trt = self._active_trts.get(child.partition)
        if trt is not None and not self._owned_by(tid, child.partition):
            trt.record_delete(child, parent, tid)
