"""Log record types and the one binary codec they share.

Transactions follow WAL (paper §2): the undo information is logged before
an update is applied, and the redo information before the lock on the
object is released.  Records are encoded to real bytes — recovery decodes
the durable byte stream, so nothing can leak through in-memory object
sharing.

Reference inserts and deletes are both expressed as ``RefUpdateRecord``
(old child ``None`` → insert, new child ``None`` → delete), which is also
the record the log analyzer mines to maintain the ERT and TRT (§3.3).

Each record kind declares its layout once: every body field names its wire
shape (:func:`wire`) from one vocabulary — fixed-width ints, a strict
bool, OIDs, length-prefixed bytes and strings, counted lists, tuples and
an optional — after the one :data:`HEADER`.  ``encode``,
:func:`decode_record`, the kind registry and :data:`PHYSICAL_KINDS` derive
from it, and :mod:`repro.core.checkpointing` lays out the reorganizer's
progress state with the same shapes.  At first use, a layout's encoder and
decoder are compiled from its declaration into the code a hand-written
codec would be, each run of fixed-width fields one precompiled ``struct``
call.  Decoding consumes exactly the record's bytes, a bool is 0 or 1, and
anything malformed raises :class:`LogCorruptionError`, so whatever decodes
re-encodes to the bytes it came from.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from itertools import count, groupby
from operator import itemgetter
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..storage.errors import LogCorruptionError
from ..storage.oid import NULL_REF, Oid

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


# -- the field vocabulary ------------------------------------------------------
# A shape encodes a value with ``put(value) -> bytes`` and reads one back
# with ``take(data, offset) -> (value, end)``.


class Fixed:
    """A fixed-width int (a ``struct`` code), mapped to and from the wire
    by ``to_wire``/``from_wire`` when given."""

    def __init__(self, code: str, default: Any = 0, to_wire=None,
                 from_wire=None) -> None:
        self.code, self.default = code, default
        self.to_wire, self.from_wire = to_wire, from_wire
        self.struct = struct.Struct("<" + code)

    def put(self, value) -> bytes:
        return self.struct.pack(
            value if self.to_wire is None else self.to_wire(value))

    def take(self, data: bytes, offset: int) -> Tuple[Any, int]:
        (value,) = self.struct.unpack_from(data, offset)
        return (value if self.from_wire is None else self.from_wire(value),
                offset + self.struct.size)


def _strict_bool(byte: int) -> bool:
    if byte > 1:
        raise LogCorruptionError(f"bool byte {byte:#04x} is neither 0 nor 1")
    return byte == 1


U8, U16, U32, U64 = (Fixed(code) for code in "BHIQ")
BOOL = Fixed("B", False, bool, _strict_bool)
OID = Fixed("Q", None, Oid.pack, Oid.unpack)    # NULL_REF raises
NULLABLE_OID = Fixed(
    "Q", None, lambda oid: NULL_REF if oid is None else oid.pack(),
    lambda packed: None if packed == NULL_REF else Oid.unpack(packed))
_COUNT = U32.struct
_FIRST = itemgetter(0)


class Blob:
    """Bytes behind a length prefix of the given width; ``text``: UTF-8."""

    def __init__(self, prefix: Fixed, text: bool = False) -> None:
        self.prefix = prefix.struct
        self.text, self.default = text, "" if text else b""

    def put(self, value) -> bytes:
        raw = value.encode("utf-8") if self.text else value
        return self.prefix.pack(len(raw)) + raw

    def take(self, data: bytes, offset: int) -> Tuple[Any, int]:
        (length,) = self.prefix.unpack_from(data, offset)
        start = offset + self.prefix.size
        end = start + length
        if end > len(data):
            raise LogCorruptionError(
                f"embedded blob of {length}B overruns the {len(data)}B record")
        raw = data[start:end]
        return (raw.decode("utf-8") if self.text else raw), end


BYTES, TEXT = Blob(U32), Blob(U32, text=True)


class ListOf:
    """A u32 count, then the items, decoded into ``into``.  A dict goes on
    the wire as its items; ``sort`` writes them sorted, so a set's or a
    map's bytes are a function of its value alone.  :class:`Fixed` items
    go through that shape's one struct."""

    default: Any = ()

    def __init__(self, item, into=tuple, sort: bool = False) -> None:
        self.item, self.into, self.sort = item, into, sort

    def put(self, value) -> bytes:
        items = value.items() if isinstance(value, dict) else value
        if self.sort:
            items = sorted(items)
        count, item = _COUNT.pack(len(items)), self.item
        if item.__class__ is Fixed:
            if item.to_wire:
                items = map(item.to_wire, items)
            return count + b"".join(map(item.struct.pack, items))
        return count + b"".join(map(item.put, items))

    def take(self, data: bytes, offset: int) -> Tuple[Any, int]:
        (count,) = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
        item = self.item
        if item.__class__ is Fixed:
            end = offset + count * item.struct.size
            if end > len(data):
                raise LogCorruptionError(
                    f"{count} items overrun the {len(data)}B record")
            items = map(_FIRST, item.struct.iter_unpack(data[offset:end]))
            if item.from_wire:
                items = map(item.from_wire, items)
            return self.into(items), end
        items, take = [], item.take
        for _ in range(count):
            each, offset = take(data, offset)
            items.append(each)
        return self.into(items), offset


class Maybe:
    """A :data:`BOOL` flag, then the item when the flag is set."""

    def __init__(self, item) -> None:
        self.item = item

    def put(self, value) -> bytes:
        flag = BOOL.put(value is not None)
        return flag if value is None else flag + self.item.put(value)

    def take(self, data: bytes, offset: int) -> Tuple[Any, int]:
        present, offset = BOOL.take(data, offset)
        return self.item.take(data, offset) if present else (None, offset)


def _compile(layout):
    """``put(values)`` and ``take(data, at)`` for ``layout.members`` back to
    back, compiled to the straight-line code a hand-written codec would be:
    one precompiled struct call per run of :class:`Fixed` members, one call
    of each other member's ``put``/``take`` (a byte string's length prefix
    is packed inline).  ``layout.reads[i]`` is the source that reads member
    ``i`` off ``values``; the code is compiled as ``layout.filename``."""
    members, reads = layout.members, layout.reads
    env: Dict[str, Any] = {}
    puts, takes = [], []
    for fixed, run in groupby(range(len(members)),
                              lambda i: members[i].__class__ is Fixed):
        run = list(run)
        if not fixed:
            for i in run:
                env[f"T{i}"] = members[i].take
                takes.append(f"v{i}, at = T{i}(data, at)")
                if members[i].__class__ is Blob and not members[i].text:
                    env[f"L{i}"] = members[i].prefix.pack
                    puts.append(f"L{i}(len({reads[i]})) + {reads[i]}")
                else:
                    env[f"P{i}"] = members[i].put
                    puts.append(f"P{i}({reads[i]})")
            continue
        packer = env[f"S{run[0]}"] = struct.Struct(
            "<" + "".join(members[i].code for i in run))
        wired = []
        for i in run:
            wired.append(reads[i])
            if members[i].to_wire:
                env[f"W{i}"] = members[i].to_wire
                wired[-1] = f"W{i}({reads[i]})"
        puts.append(f"S{run[0]}.pack({', '.join(wired)})")
        takes.append("".join(f"v{i}, " for i in run)
                     + f"= S{run[0]}.unpack_from(data, at)")
        for i in run:
            if members[i].from_wire:
                env[f"F{i}"] = members[i].from_wire
                takes.append(f"v{i} = F{i}(v{i})")
        takes.append(f"at += {packer.size}")
    values = "".join(f"v{i}, " for i in range(len(members)))
    source = (f"def put(values):\n    return {' + '.join(puts)}\n"
              "def take(data, at):\n    " + "\n    ".join(takes)
              + f"\n    return ({values}), at\n")
    exec(compile(source, layout.filename, "exec"), env)
    return env["put"], env["take"]


#: Numbers the layouts in the order they are built: all at import, so each
#: layout's number is the same in every run.
_layouts = count(1)


class Layout:
    """Shapes back to back; the value is the tuple of theirs.  ``put`` and
    ``take`` are compiled at first use, so importing compiles nothing."""

    def __init__(self, *members) -> None:
        self.members = members
        #: Source reading member ``i`` off ``put``'s argument ``values``.
        self.reads = [f"values[{i}]" for i in range(len(members))]
        #: The file name of the compiled code: one per layout, so a
        #: profile keeps each layout's ``put``/``take`` apart.
        self.filename = f"<layout {next(_layouts)}>"

    # The first call compiles both; the compiled functions, set on the
    # instance, shadow these two methods from then on (``ListOf`` may
    # have bound one before, so each compiles only if nothing has yet).
    def put(self, values) -> bytes:
        if "put" not in vars(self):
            self.put, self.take = _compile(self)
        return self.put(values)

    def take(self, data: bytes, at: int) -> Tuple[Any, int]:
        if "take" not in vars(self):
            self.put, self.take = _compile(self)
        return self.take(data, at)


class Shape(Layout):
    """Named shapes: the codec of an object's attributes of those names;
    ``put(obj)`` encodes ``obj``."""

    def __init__(self, *named: Tuple[str, Any]) -> None:
        super().__init__(*(shape for _, shape in named))
        self.names = tuple(name for name, _ in named)
        self.reads = [f"values.{name}" for name in self.names]

    def decode(self, data: bytes) -> tuple:
        """The values in exactly ``data``, else :class:`LogCorruptionError`."""
        try:
            values, end = self.take(data, 0)
        except (struct.error, ValueError) as exc:
            raise LogCorruptionError(
                f"malformed {len(data)}B encoding: {exc}") from exc
        if end != len(data):
            raise LogCorruptionError(
                f"{len(data) - end} trailing bytes after a {end}B encoding")
        return values


# -- records ----------------------------------------------------------------------

#: The header every encoding opens with, declared once.
HEADER = (("kind", U8), ("tid", U64), ("prev_lsn", U64))
#: Byte offset of the kind: the header's first field.
KIND_BYTE = 0
#: The header's first two fields, kind and tid, read off an encoding
#: without decoding it.
KIND_TID = struct.Struct(
    "<" + "".join(shape.code for _, shape in HEADER[:2]))

_BY_KIND: Dict[int, type] = {}


def wire(shape, default: Any = None):
    """A record field carried in the body as ``shape``."""
    return field(default=shape.default if default is None else default,
                 metadata={"wire": shape})


def record(kind: int, physical: bool = False):
    """Declare record kind ``kind``: a dataclass whose ``wire`` fields, in
    order, are its body.  A ``physical`` kind is a page change."""
    def declare(cls):
        cls = dataclass(unsafe_hash=True)(cls)
        cls.kind, cls.physical = kind, physical
        cls.shape = Shape(*HEADER, *((f.name, f.metadata["wire"])
                                     for f in fields(cls)
                                     if "wire" in f.metadata))
        _BY_KIND[kind] = cls
        return cls
    return declare


@dataclass(unsafe_hash=True)
class LogRecord:
    """Base class; ``lsn`` is stamped by the log manager at append time.

    Records are immutable by convention (only the log manager writes
    ``lsn``, exactly once).  They are deliberately *not* ``frozen=True``
    dataclasses: the frozen ``__init__`` pays an ``object.__setattr__``
    per field, and record construction brackets every logged update on
    the benchmark's hottest path.  ``unsafe_hash=True`` keeps them
    hashable exactly as the frozen variant was.
    """

    tid: int
    prev_lsn: int
    lsn: int = field(default=0, compare=False, kw_only=True)

    kind: ClassVar[int]
    physical: ClassVar[bool]
    shape: ClassVar[Shape]

    def encode(self) -> bytes:
        """This record's bytes.  The first call makes the kind's compiled
        encoder its class's ``encode``."""
        cls = type(self)
        encoded = cls.shape.put(self)
        cls.encode = cls.shape.put
        return encoded


@record(KIND_BEGIN)
class BeginRecord(LogRecord):
    flags: int = wire(U8)
    reorg_partition: int = wire(U16, NO_REORG_PARTITION)

    @property
    def is_system(self) -> bool:
        return bool(self.flags & FLAG_SYSTEM_TXN)

    @property
    def owner_partition(self) -> Optional[int]:
        """Partition this reorganizer transaction works on, if any."""
        if self.reorg_partition == NO_REORG_PARTITION:
            return None
        return self.reorg_partition


@record(KIND_COMMIT)
class CommitRecord(LogRecord):
    pass


@record(KIND_ABORT)
class AbortRecord(LogRecord):
    pass


@record(KIND_END)
class EndRecord(LogRecord):
    pass


@record(KIND_OBJ_CREATE, physical=True)
class ObjCreateRecord(LogRecord):
    """A new object materialized at ``oid`` with the given full image."""

    oid: Oid = wire(NULLABLE_OID)
    image: bytes = wire(BYTES)


@record(KIND_OBJ_DELETE, physical=True)
class ObjDeleteRecord(LogRecord):
    """An object freed; ``before_image`` allows undo to recreate it."""

    oid: Oid = wire(NULLABLE_OID)
    before_image: bytes = wire(BYTES)


@record(KIND_PAYLOAD_UPDATE, physical=True)
class PayloadUpdateRecord(LogRecord):
    """In-place payload bytes overwrite: before/after images at an offset."""

    oid: Oid = wire(NULLABLE_OID)
    offset: int = wire(U32)
    before: bytes = wire(BYTES)
    after: bytes = wire(BYTES)



@record(KIND_REF_UPDATE, physical=True)
class RefUpdateRecord(LogRecord):
    """Reference slot ``slot`` of ``parent`` changed old_child → new_child.

    ``old_child is None``  → a pointer *insert*;
    ``new_child is None``  → a pointer *delete*;
    both non-None          → an atomic re-point (delete + insert).
    """

    parent: Oid = wire(NULLABLE_OID)
    slot: int = wire(U16)
    old_child: Optional[Oid] = wire(NULLABLE_OID)
    new_child: Optional[Oid] = wire(NULLABLE_OID)


@record(KIND_CLR)
class ClrRecord(LogRecord):
    """Compensation record: the redo-only action performed by an undo step.

    ``undone_lsn`` is the LSN of the record this CLR compensates;
    ``undo_next_lsn`` points at the next record of the transaction still to
    be undone, so a crash during rollback never undoes twice.  ``action``
    is the encoded physical record (OBJ_CREATE/OBJ_DELETE/PAYLOAD_UPDATE/
    REF_UPDATE) describing what the undo did.
    """

    undo_next_lsn: int = wire(U64)
    undone_lsn: int = wire(U64)
    action: bytes = wire(BYTES)

    def decode_action(self) -> LogRecord:
        return decode_record(self.action)


@record(KIND_CHECKPOINT)
class CheckpointRecord(LogRecord):
    """Sharp checkpoint marker.

    ``snapshot_id`` names an entry in the snapshot store holding the full
    database image at this LSN; ``active_txns`` maps each in-flight
    transaction to its last LSN so analysis can seed the transaction table.
    """

    snapshot_id: int = wire(U64)
    active_txns: Tuple[Tuple[int, int], ...] = wire(ListOf(Layout(U64, U64)))

    def active_txn_table(self) -> Dict[int, int]:
        return dict(self.active_txns)


@record(KIND_REORG_PROGRESS)
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

    partition_id: int = wire(U16)
    algorithm: str = wire(TEXT)
    state: bytes = wire(BYTES)

    @property
    def is_tombstone(self) -> bool:
        return not self.state


@record(KIND_TPC_PREPARE)
class TpcPrepareRecord(LogRecord):
    """Participant branch of global transaction ``gid`` voted YES.

    Force-logged (presumed-abort 2PC) after the participant applied and
    WAL-logged its share of the reference patch, *before* the vote goes
    on the wire.  A crash leaves the branch **in-doubt**: analysis must
    neither commit nor undo it — the patched pages stay locked until the
    coordinator (``coordinator`` node id) resolves ``gid``.
    """

    gid: str = wire(TEXT)
    coordinator: int = wire(U16)


@record(KIND_TPC_DECISION)
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

    gid: str = wire(TEXT)
    commit: bool = wire(BOOL)


@record(KIND_TPC_END)
class TpcEndRecord(LogRecord):
    """All participants acked the decision for ``gid``; the coordinator
    forgets the global transaction.  Lazy (never force-logged): losing
    it only costs a recovered coordinator a redundant resolution answer.
    """

    gid: str = wire(TEXT)


@record(KIND_TAIL_DELTA)
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

    commit_ts: int = wire(U64)
    writes: Tuple[Tuple[Oid, bytes], ...] = wire(
        ListOf(Layout(NULLABLE_OID, BYTES)))


@record(KIND_MERGE_INSTALL)
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

    owner_tid: int = wire(U64)
    partition_id: int = wire(U16)
    merge_ts: int = wire(U64)
    flips: Tuple[Tuple[Oid, Oid], ...] = wire(
        ListOf(Layout(NULLABLE_OID, NULLABLE_OID)))
    frees: Tuple[Oid, ...] = wire(ListOf(NULLABLE_OID))


#: Record kinds that describe physical page changes (redo/undo-able).
PHYSICAL_KINDS = frozenset(
    kind for kind, cls in _BY_KIND.items() if cls.physical)


def decode_record(data: bytes, lsn: int = 0) -> LogRecord:
    """Decode one encoded record (inverse of ``LogRecord.encode``).

    The record must consume exactly ``data``; malformed bytes raise
    :class:`LogCorruptionError`, never ``struct.error`` or ``IndexError``,
    so callers can tell corruption apart from implementation bugs.
    """
    try:
        cls = _BY_KIND[data[KIND_BYTE]]
    except (IndexError, KeyError):
        raise LogCorruptionError(
            f"no known log record kind in {bytes(data[:1])!r}") from None
    record = cls(*cls.shape.decode(data)[1:])
    record.lsn = lsn
    return record
