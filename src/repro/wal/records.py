"""Log record types and their binary serialization.

Transactions follow WAL (paper §2): the undo information is logged before
an update is applied, and the redo information before the lock on the
object is released.  Records are encoded to real bytes — recovery decodes
the durable byte stream, so nothing can leak through in-memory object
sharing.

Reference inserts and deletes are both expressed as ``RefUpdateRecord``
(old child ``None`` → insert, new child ``None`` → delete), which is also
the record the log analyzer mines to maintain the ERT and TRT (§3.3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..storage.errors import LogCorruptionError
from ..storage.oid import NULL_REF, Oid

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
# Combined packers for the hot paths: every appended record pays the
# header, and PAYLOAD_UPDATE/REF_UPDATE dominate workload logging.  The
# combined formats are concatenations of the original little-endian
# fields ("<" disables padding), so the encoded bytes are identical.
_HDR = struct.Struct("<BQQ")            # kind, tid, prev_lsn
# Whole-record packers (header + body in one C call) for the record
# kinds the workload appends constantly; same field-by-field layout.
_BEGIN_FULL = struct.Struct("<BQQBH")   # hdr + flags, reorg_partition
_REF_FULL = struct.Struct("<BQQQHQQ")   # hdr + parent, slot, old, new
_PAYLOAD_FULL = struct.Struct("<BQQQII")  # hdr + oid, offset, len(before)

KIND_BEGIN = 1
KIND_COMMIT = 2
KIND_ABORT = 3
KIND_END = 4
KIND_OBJ_CREATE = 5
KIND_OBJ_DELETE = 6
KIND_PAYLOAD_UPDATE = 7
KIND_REF_UPDATE = 8
KIND_CLR = 9
KIND_CHECKPOINT = 10
KIND_REORG_PROGRESS = 11
KIND_TPC_PREPARE = 12
KIND_TPC_DECISION = 13
KIND_TPC_END = 14
KIND_TAIL_DELTA = 15
KIND_MERGE_INSTALL = 16

#: BEGIN flag: the transaction is a system transaction (reorganizer /
#: utility).  The log analyzer maintains the ERT for system transactions
#: like any other; a reorganizer's own transactions additionally carry
#: the partition they reorganize (``reorg_partition``) so that *that*
#: partition's TRT skips them — the reorganizer knows about its own
#: updates (§4.2 discussion) — while every other TRT still sees them
#: (two concurrent reorganizations of mutually-referencing partitions
#: must observe each other's reference patches).
FLAG_SYSTEM_TXN = 0x01

#: ``reorg_partition`` value meaning "not a reorganizer's transaction".
NO_REORG_PARTITION = 0xFFFF


def _pack_oid(oid: Optional[Oid]) -> bytes:
    return _U64.pack(NULL_REF if oid is None else oid.pack())


def _unpack_oid(data: bytes, offset: int) -> Tuple[Optional[Oid], int]:
    (packed,) = _U64.unpack_from(data, offset)
    oid = None if packed == NULL_REF else Oid.unpack(packed)
    return oid, offset + _U64.size


def _pack_bytes(payload: bytes) -> bytes:
    return _U32.pack(len(payload)) + payload


def _unpack_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    (length,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    if offset + length > len(data):
        raise LogCorruptionError(
            f"embedded blob of {length}B overruns the {len(data)}B record")
    return data[offset:offset + length], offset + length


@dataclass(unsafe_hash=True)
class LogRecord:
    """Base class; ``lsn`` is stamped by the log manager at append time.

    Records are immutable by convention (only :meth:`with_lsn` writes to
    one, exactly once).  They are deliberately *not* ``frozen=True``
    dataclasses: the frozen ``__init__`` pays an ``object.__setattr__``
    per field, and record construction brackets every logged update on
    the benchmark's hottest path.  ``unsafe_hash=True`` keeps them
    hashable exactly as the frozen variant was.
    """

    tid: int
    prev_lsn: int
    lsn: int = field(default=0, compare=False)

    kind: int = 0  # overridden per subclass

    def encode(self) -> bytes:
        return _HDR.pack(self.kind, self.tid, self.prev_lsn) + \
            self._encode_body()

    def _encode_body(self) -> bytes:
        return b""

    def with_lsn(self, lsn: int) -> "LogRecord":
        self.lsn = lsn
        return self


@dataclass(unsafe_hash=True)
class BeginRecord(LogRecord):
    flags: int = 0
    reorg_partition: int = NO_REORG_PARTITION
    kind: int = KIND_BEGIN

    @property
    def is_system(self) -> bool:
        return bool(self.flags & FLAG_SYSTEM_TXN)

    @property
    def owner_partition(self) -> Optional[int]:
        """Partition this reorganizer transaction works on, if any."""
        if self.reorg_partition == NO_REORG_PARTITION:
            return None
        return self.reorg_partition

    def encode(self) -> bytes:
        return _BEGIN_FULL.pack(KIND_BEGIN, self.tid, self.prev_lsn,
                                self.flags, self.reorg_partition)


@dataclass(unsafe_hash=True)
class CommitRecord(LogRecord):
    kind: int = KIND_COMMIT

    def encode(self) -> bytes:
        return _HDR.pack(KIND_COMMIT, self.tid, self.prev_lsn)


@dataclass(unsafe_hash=True)
class AbortRecord(LogRecord):
    kind: int = KIND_ABORT

    def encode(self) -> bytes:
        return _HDR.pack(KIND_ABORT, self.tid, self.prev_lsn)


@dataclass(unsafe_hash=True)
class EndRecord(LogRecord):
    kind: int = KIND_END

    def encode(self) -> bytes:
        return _HDR.pack(KIND_END, self.tid, self.prev_lsn)


@dataclass(unsafe_hash=True)
class ObjCreateRecord(LogRecord):
    """A new object materialized at ``oid`` with the given full image."""

    oid: Oid = None  # type: ignore[assignment]
    image: bytes = b""
    kind: int = KIND_OBJ_CREATE

    def _encode_body(self) -> bytes:
        return _pack_oid(self.oid) + _pack_bytes(self.image)


@dataclass(unsafe_hash=True)
class ObjDeleteRecord(LogRecord):
    """An object freed; ``before_image`` allows undo to recreate it."""

    oid: Oid = None  # type: ignore[assignment]
    before_image: bytes = b""
    kind: int = KIND_OBJ_DELETE

    def _encode_body(self) -> bytes:
        return _pack_oid(self.oid) + _pack_bytes(self.before_image)


@dataclass(unsafe_hash=True)
class PayloadUpdateRecord(LogRecord):
    """In-place payload bytes overwrite: before/after images at an offset."""

    oid: Oid = None  # type: ignore[assignment]
    offset: int = 0
    before: bytes = b""
    after: bytes = b""
    kind: int = KIND_PAYLOAD_UPDATE

    def encode(self) -> bytes:
        before = self.before
        after = self.after
        return (_PAYLOAD_FULL.pack(
                    KIND_PAYLOAD_UPDATE, self.tid, self.prev_lsn,
                    NULL_REF if self.oid is None else self.oid.pack(),
                    self.offset, len(before))
                + before + _U32.pack(len(after)) + after)


@dataclass(unsafe_hash=True)
class RefUpdateRecord(LogRecord):
    """Reference slot ``slot`` of ``parent`` changed old_child → new_child.

    ``old_child is None``  → a pointer *insert*;
    ``new_child is None``  → a pointer *delete*;
    both non-None          → an atomic re-point (delete + insert).
    """

    parent: Oid = None  # type: ignore[assignment]
    slot: int = 0
    old_child: Optional[Oid] = None
    new_child: Optional[Oid] = None
    kind: int = KIND_REF_UPDATE

    def encode(self) -> bytes:
        return _REF_FULL.pack(
            KIND_REF_UPDATE, self.tid, self.prev_lsn,
            NULL_REF if self.parent is None else self.parent.pack(),
            self.slot,
            NULL_REF if self.old_child is None else self.old_child.pack(),
            NULL_REF if self.new_child is None else self.new_child.pack())


@dataclass(unsafe_hash=True)
class ClrRecord(LogRecord):
    """Compensation record: the redo-only action performed by an undo step.

    ``undone_lsn`` is the LSN of the record this CLR compensates;
    ``undo_next_lsn`` points at the next record of the transaction still to
    be undone, so a crash during rollback never undoes twice.  ``action``
    is the encoded physical record (OBJ_CREATE/OBJ_DELETE/PAYLOAD_UPDATE/
    REF_UPDATE) describing what the undo did.
    """

    undo_next_lsn: int = 0
    undone_lsn: int = 0
    action: bytes = b""
    kind: int = KIND_CLR

    def _encode_body(self) -> bytes:
        return (_U64.pack(self.undo_next_lsn) + _U64.pack(self.undone_lsn)
                + _pack_bytes(self.action))

    def decode_action(self) -> LogRecord:
        return decode_record(self.action)


@dataclass(unsafe_hash=True)
class CheckpointRecord(LogRecord):
    """Sharp checkpoint marker.

    ``snapshot_id`` names an entry in the snapshot store holding the full
    database image at this LSN; ``active_txns`` maps each in-flight
    transaction to its last LSN so analysis can seed the transaction table.
    """

    snapshot_id: int = 0
    active_txns: Tuple[Tuple[int, int], ...] = ()
    kind: int = KIND_CHECKPOINT

    def _encode_body(self) -> bytes:
        parts = [_U64.pack(self.snapshot_id), _U32.pack(len(self.active_txns))]
        for txn_tid, last_lsn in self.active_txns:
            parts.append(_U64.pack(txn_tid))
            parts.append(_U64.pack(last_lsn))
        return b"".join(parts)

    def active_txn_table(self) -> Dict[int, int]:
        return dict(self.active_txns)


@dataclass(unsafe_hash=True)
class ReorgProgressRecord(LogRecord):
    """Reorganizer progress checkpoint carried in the WAL (§4.4).

    ``state`` is an encoded :class:`~repro.core.checkpointing.ReorgState`
    (a base: ``prev_lsn == 0``) or
    :class:`~repro.core.checkpointing.ReorgDelta` (``prev_lsn`` is the
    LSN of the progress record it follows); an empty ``state`` is a
    tombstone marking the reorganization complete.  Logged with
    ``tid == 0`` like CHECKPOINT records, so analysis never treats the
    writer as a loser transaction and redo never replays it — only the
    resume path reads these records back.
    """

    partition_id: int = 0
    algorithm: str = ""
    state: bytes = b""
    kind: int = KIND_REORG_PROGRESS

    @property
    def is_tombstone(self) -> bool:
        return not self.state

    def _encode_body(self) -> bytes:
        return (_U16.pack(self.partition_id)
                + _pack_bytes(self.algorithm.encode("utf-8"))
                + _pack_bytes(self.state))


@dataclass(unsafe_hash=True)
class TpcPrepareRecord(LogRecord):
    """Participant branch of global transaction ``gid`` voted YES.

    Force-logged (presumed-abort 2PC) after the participant applied and
    WAL-logged its share of the reference patch, *before* the vote goes
    on the wire.  A crash leaves the branch **in-doubt**: analysis must
    neither commit nor undo it — the patched pages stay locked until the
    coordinator (``coordinator`` node id) resolves ``gid``.
    """

    gid: str = ""
    coordinator: int = 0
    kind: int = KIND_TPC_PREPARE

    def _encode_body(self) -> bytes:
        return (_pack_bytes(self.gid.encode("utf-8"))
                + _U16.pack(self.coordinator))


@dataclass(unsafe_hash=True)
class TpcDecisionRecord(LogRecord):
    """Coordinator's durable decision for global transaction ``gid``.

    ``commit=True`` is the global commit point; it is force-logged
    before any COMMIT goes to a participant.  Under presumed abort an
    abort decision need not be durable — a coordinator with no decision
    record for ``gid`` answers "abort" — but one is still logged on the
    explicit-abort path so the failure matrix is auditable.  Analysis
    treats a durable commit decision as committing the coordinator's
    local branch even if the crash beat the branch's own COMMIT record
    into the log (the decision *is* the commit point).
    """

    gid: str = ""
    commit: bool = False
    kind: int = KIND_TPC_DECISION

    def _encode_body(self) -> bytes:
        return (_pack_bytes(self.gid.encode("utf-8"))
                + _U8.pack(1 if self.commit else 0))


@dataclass(unsafe_hash=True)
class TpcEndRecord(LogRecord):
    """All participants acked the decision for ``gid``; the coordinator
    forgets the global transaction.  Lazy (never force-logged): losing
    it only costs a recovered coordinator a redundant resolution answer.
    """

    gid: str = ""
    kind: int = KIND_TPC_END

    def _encode_body(self) -> bytes:
        return _pack_bytes(self.gid.encode("utf-8"))


@dataclass(unsafe_hash=True)
class TailDeltaRecord(LogRecord):
    """One MVCC commit's tail versions (:mod:`repro.mvcc`).

    A snapshot transaction's whole write set is carried in a single
    record — the atomic durability point of the commit: either the
    record is durable and the commit happened, or a torn tail truncates
    it and the commit never existed.  ``writes`` pairs each *logical*
    OID with the full after-image it committed at ``commit_ts``.

    Logged with ``tid == 0`` like CHECKPOINT/REORG_PROGRESS records:
    analysis never sees a loser, redo never replays it against pages
    (tail versions live above the physical store); only the MVCC tier
    rebuild reads these back, in LSN order, to reconstruct the version
    chains.
    """

    commit_ts: int = 0
    writes: Tuple[Tuple[Oid, bytes], ...] = ()
    kind: int = KIND_TAIL_DELTA

    def _encode_body(self) -> bytes:
        parts = [_U64.pack(self.commit_ts), _U32.pack(len(self.writes))]
        for oid, image in self.writes:
            parts.append(_pack_oid(oid))
            parts.append(_pack_bytes(image))
        return b"".join(parts)


@dataclass(unsafe_hash=True)
class MergeInstallRecord(LogRecord):
    """The merge reorganizer's atomic epoch flip (:mod:`repro.mvcc`).

    ``flips`` maps each merged logical OID to the freshly-placed base
    object now carrying its consolidated image; ``frees`` lists the old
    base addresses to reclaim once the GC watermark passes
    ``merge_ts``.  Logged with ``tid == 0`` *inside* the merge's system
    transaction (``owner_tid``), before that transaction commits: the
    tier rebuild honors the flip only when ``owner_tid`` committed, so
    a crash before the commit point undoes the new bases physically and
    leaves the lineage untouched — the flip is atomic with the commit.
    """

    owner_tid: int = 0
    partition_id: int = 0
    merge_ts: int = 0
    flips: Tuple[Tuple[Oid, Oid], ...] = ()
    frees: Tuple[Oid, ...] = ()
    kind: int = KIND_MERGE_INSTALL

    def _encode_body(self) -> bytes:
        parts = [_U64.pack(self.owner_tid), _U16.pack(self.partition_id),
                 _U64.pack(self.merge_ts), _U32.pack(len(self.flips))]
        for logical, physical in self.flips:
            parts.append(_pack_oid(logical))
            parts.append(_pack_oid(physical))
        parts.append(_U32.pack(len(self.frees)))
        for oid in self.frees:
            parts.append(_pack_oid(oid))
        return b"".join(parts)


def decode_record(data: bytes, lsn: int = 0) -> LogRecord:
    """Decode one encoded record (inverse of ``LogRecord.encode``).

    Malformed bytes — truncated fields, blobs overrunning the record,
    unknown kinds — raise :class:`LogCorruptionError` rather than letting
    ``struct.error``/``IndexError`` escape, so callers can tell
    corruption apart from implementation bugs.
    """
    try:
        return _decode_record(data, lsn)
    except LogCorruptionError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise LogCorruptionError(
            f"malformed log record bytes ({len(data)}B): {exc}") from exc


def _decode_record(data: bytes, lsn: int) -> LogRecord:
    kind, tid, prev_lsn = _HDR.unpack_from(data, 0)
    offset = _HDR.size
    record: LogRecord
    if kind == KIND_BEGIN:
        (flags,) = _U8.unpack_from(data, offset)
        (reorg_partition,) = _U16.unpack_from(data, offset + 1)
        record = BeginRecord(tid, prev_lsn, flags=flags,
                             reorg_partition=reorg_partition)
    elif kind == KIND_COMMIT:
        record = CommitRecord(tid, prev_lsn)
    elif kind == KIND_ABORT:
        record = AbortRecord(tid, prev_lsn)
    elif kind == KIND_END:
        record = EndRecord(tid, prev_lsn)
    elif kind == KIND_OBJ_CREATE:
        oid, offset = _unpack_oid(data, offset)
        image, offset = _unpack_bytes(data, offset)
        record = ObjCreateRecord(tid, prev_lsn, oid=oid, image=image)
    elif kind == KIND_OBJ_DELETE:
        oid, offset = _unpack_oid(data, offset)
        image, offset = _unpack_bytes(data, offset)
        record = ObjDeleteRecord(tid, prev_lsn, oid=oid, before_image=image)
    elif kind == KIND_PAYLOAD_UPDATE:
        oid, offset = _unpack_oid(data, offset)
        (byte_offset,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        before, offset = _unpack_bytes(data, offset)
        after, offset = _unpack_bytes(data, offset)
        record = PayloadUpdateRecord(tid, prev_lsn, oid=oid,
                                     offset=byte_offset,
                                     before=before, after=after)
    elif kind == KIND_REF_UPDATE:
        parent, offset = _unpack_oid(data, offset)
        (slot,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        old_child, offset = _unpack_oid(data, offset)
        new_child, offset = _unpack_oid(data, offset)
        record = RefUpdateRecord(tid, prev_lsn, parent=parent, slot=slot,
                                 old_child=old_child, new_child=new_child)
    elif kind == KIND_CLR:
        (undo_next,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        (undone,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        action, offset = _unpack_bytes(data, offset)
        record = ClrRecord(tid, prev_lsn, undo_next_lsn=undo_next,
                           undone_lsn=undone, action=action)
    elif kind == KIND_CHECKPOINT:
        (snapshot_id,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        actives = []
        for _ in range(count):
            (txn_tid,) = _U64.unpack_from(data, offset)
            offset += _U64.size
            (last_lsn,) = _U64.unpack_from(data, offset)
            offset += _U64.size
            actives.append((txn_tid, last_lsn))
        record = CheckpointRecord(tid, prev_lsn, snapshot_id=snapshot_id,
                                  active_txns=tuple(actives))
    elif kind == KIND_REORG_PROGRESS:
        (partition_id,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        algorithm, offset = _unpack_bytes(data, offset)
        state, offset = _unpack_bytes(data, offset)
        record = ReorgProgressRecord(tid, prev_lsn,
                                     partition_id=partition_id,
                                     algorithm=algorithm.decode("utf-8"),
                                     state=state)
    elif kind == KIND_TPC_PREPARE:
        gid, offset = _unpack_bytes(data, offset)
        (coordinator,) = _U16.unpack_from(data, offset)
        record = TpcPrepareRecord(tid, prev_lsn, gid=gid.decode("utf-8"),
                                  coordinator=coordinator)
    elif kind == KIND_TPC_DECISION:
        gid, offset = _unpack_bytes(data, offset)
        (flag,) = _U8.unpack_from(data, offset)
        record = TpcDecisionRecord(tid, prev_lsn, gid=gid.decode("utf-8"),
                                   commit=bool(flag))
    elif kind == KIND_TPC_END:
        gid, offset = _unpack_bytes(data, offset)
        record = TpcEndRecord(tid, prev_lsn, gid=gid.decode("utf-8"))
    elif kind == KIND_TAIL_DELTA:
        (commit_ts,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        writes = []
        for _ in range(count):
            oid, offset = _unpack_oid(data, offset)
            image, offset = _unpack_bytes(data, offset)
            writes.append((oid, image))
        record = TailDeltaRecord(tid, prev_lsn, commit_ts=commit_ts,
                                 writes=tuple(writes))
    elif kind == KIND_MERGE_INSTALL:
        (owner_tid,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        (partition_id,) = _U16.unpack_from(data, offset)
        offset += _U16.size
        (merge_ts,) = _U64.unpack_from(data, offset)
        offset += _U64.size
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        flips = []
        for _ in range(count):
            logical, offset = _unpack_oid(data, offset)
            physical, offset = _unpack_oid(data, offset)
            flips.append((logical, physical))
        (count,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        frees = []
        for _ in range(count):
            oid, offset = _unpack_oid(data, offset)
            frees.append(oid)
        record = MergeInstallRecord(tid, prev_lsn, owner_tid=owner_tid,
                                    partition_id=partition_id,
                                    merge_ts=merge_ts, flips=tuple(flips),
                                    frees=tuple(frees))
    else:
        raise LogCorruptionError(f"unknown log record kind {kind}")
    return record.with_lsn(lsn)


#: Record kinds that describe physical page changes (redo/undo-able).
PHYSICAL_KINDS = frozenset({
    KIND_OBJ_CREATE, KIND_OBJ_DELETE, KIND_PAYLOAD_UPDATE, KIND_REF_UPDATE,
})
