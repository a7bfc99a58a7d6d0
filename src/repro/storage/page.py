"""Slotted pages.

Each partition is a set of slotted pages.  A page holds variable-length
records addressed by a stable slot number (so an object's OID — which
embeds the slot — survives in-page compaction).  Records grow from the
front of the page, the slot directory from the back, classic style.

The page also carries a ``page_lsn``: the LSN of the last log record
applied to it.  Redo during restart recovery compares record LSNs against
it, which makes redo idempotent (ARIES).

Every page maintains a CRC32 over its content, updated by each mutating
operation.  The checksum travels with the page's durable image
(``snapshot``) and is verified on ``restore`` — a torn checkpoint write
or a flipped bit in stable storage surfaces as a
:class:`~repro.storage.errors.PageChecksumError` instead of silently
corrupt data.  ``verify`` re-checks a *live* page (checksum plus slot
directory invariants), which is what the scrubber and the buffer pool's
read-verification use: a stray write that bypasses the page API cannot
keep the checksum in sync, so it is detected.
"""

from __future__ import annotations

import struct
import zlib
from itertools import chain, count, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    NoSuchObjectError,
    PageChecksumError,
    PageFullError,
    StorageError,
)

#: Bytes of fixed page header we account for (slot count, free pointer,
#: page LSN).
PAGE_HEADER_BYTES = 16
#: Bytes per slot-directory entry (offset + length).
SLOT_ENTRY_BYTES = 4

_FREE = -1
_crc32 = zlib.crc32
_META = struct.Struct("<qqq")   # free_ptr, live_bytes, page_lsn (snapshots)
_QQ = struct.Struct("<qq")
#: Process-wide page-mutation stamp.  Every mutating page operation takes
#: the next value, so a ``(page, version)`` pair observed once can be
#: re-validated later with a single integer compare — and, because the
#: counter is global, a version can never recur on a *different* page
#: object (restore/repair build fresh pages with fresh stamps), so stale
#: cache entries can never alias a rebuilt page.
_VERSION_COUNTER = count(1)
_next_version = _VERSION_COUNTER.__next__

#: Cached packers for flattened slot directories, keyed by value count.
#: Packing the whole directory in one call feeds crc32 the same byte
#: stream as the old per-slot loop (CRC values are unchanged) at a
#: fraction of the Python-call overhead — this function runs on every
#: page mutation and dominated the bench profile.
_SLOT_PACKERS: Dict[int, struct.Struct] = {}


def _crc_content(buf, slots: List[Tuple[int, int]],
                 free_ptr: int, live_bytes: int) -> int:
    """CRC32 over everything a torn write or bit flip could damage."""
    crc = zlib.crc32(buf)
    crc = zlib.crc32(_QQ.pack(free_ptr, live_bytes), crc)
    if slots:
        count = len(slots) * 2
        packer = _SLOT_PACKERS.get(count)
        if packer is None:
            packer = _SLOT_PACKERS[count] = struct.Struct(f"<{count}q")
        crc = zlib.crc32(packer.pack(*chain.from_iterable(slots)), crc)
    return crc


def snapshot_checksum(state: Dict[str, object]) -> int:
    """The checksum a page snapshot's content *should* carry."""
    crc = _crc_content(state["buf"], state["slots"],  # type: ignore
                       state["free_ptr"], state["live_bytes"])  # type: ignore
    return zlib.crc32(_META.pack(0, 0, state["page_lsn"]), crc)  # type: ignore


def snapshot_checksum_ok(state: Dict[str, object]) -> bool:
    """Whether a durable page image passes its own checksum (pre-CRC
    snapshots, which carry no ``crc`` field, are accepted)."""
    recorded = state.get("crc")
    return recorded is None or recorded == snapshot_checksum(state)


class Page:
    """A slotted page of ``size`` bytes.

    Record bytes live in an actual ``bytearray`` so partial in-place writes
    (reference-slot updates, payload pokes) operate on real storage, not on
    Python object attributes.
    """

    __slots__ = ("size", "page_lsn", "_buf", "_mv", "_free_ptr", "_slots",
                 "_live_bytes", "_crc", "_tail", "_version", "_holes")

    def __init__(self, size: int):
        if size <= PAGE_HEADER_BYTES + SLOT_ENTRY_BYTES:
            raise ValueError(f"page size too small: {size}")
        self.size = size
        self.page_lsn = 0
        self._buf = bytearray(size)
        # Long-lived memoryview over the buffer, sliced per read instead
        # of constructed per read.  Safe to hold: the buffer is never
        # resized (records are placed with equal-length slice writes),
        # and every path that rebinds ``_buf`` rebinds the view with it.
        self._mv = memoryview(self._buf)
        self._free_ptr = 0               # next byte offset for appends
        self._slots: List[Tuple[int, int]] = []   # slot -> (offset, length)
        self._live_bytes = 0
        self._holes = False    # may the slot directory have a free entry?
        # Mutation stamp (see ``_VERSION_COUNTER``); bumped by every
        # operation that changes record bytes or the slot directory.
        self._version = _next_version()
        # Packed (free_ptr, live_bytes, slot directory) bytes, reused by
        # the checksum while only record *bytes* change (the common case:
        # in-place payload pokes and reference-slot writes).  Any method
        # touching the directory or the space accounting resets it.
        self._tail: Optional[bytes] = None
        self._crc = self._content_crc()

    # -- space accounting ----------------------------------------------------

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def live_slot_count(self) -> int:
        return sum(1 for off, _ in self._slots if off != _FREE)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed by live records plus fixed overheads."""
        return (PAGE_HEADER_BYTES + self._live_bytes
                + len(self._slots) * SLOT_ENTRY_BYTES)

    @property
    def free_space(self) -> int:
        """Bytes available for new records (assuming one new slot entry)."""
        return max(0, self.size - PAGE_HEADER_BYTES - self._live_bytes
                   - (len(self._slots) + 1) * SLOT_ENTRY_BYTES)

    @property
    def is_empty(self) -> bool:
        return self._live_bytes == 0

    # -- record operations -----------------------------------------------------

    def insert(self, data: bytes) -> int:
        """Store ``data`` in a free slot; returns the slot number."""
        placed = self.insert_many((data,))
        if not placed:
            raise PageFullError(
                f"{len(data)} bytes do not fit ({self.free_space} free)")
        return placed[0]

    def insert_many(self, datas: Sequence[bytes], start: int = 0
                    ) -> List[int]:
        """Store ``datas[start:]`` as ``insert`` would, up to the first
        record that does not fit or is smaller than the one before it (a
        lower page may fit it); returns the slots used.  One checksum."""
        placed: List[int] = []
        floor = 0
        for data in islice(datas, start, None):
            if not floor <= len(data) <= self.free_space:
                break
            floor = len(data)
            slot = self._find_free_slot()
            self._put(slot, data)
            placed.append(slot)
        if placed:
            self._stamp()
        return placed

    def insert_at(self, slot: int, data: bytes) -> None:
        """Store ``data`` at a specific slot number (recovery redo path)."""
        while len(self._slots) <= slot:
            self._slots.append((_FREE, 0))
            self._tail = None
            self._holes = True
        offset, _ = self._slots[slot]
        if offset != _FREE:
            raise StorageError(f"slot {slot} already occupied")
        needed = len(data)
        if self.size - self.used_bytes < needed:
            raise PageFullError(
                f"{needed} bytes do not fit at slot {slot}")
        self._place(slot, data)

    def read(self, slot: int) -> bytes:
        offset, length = self._slot_entry(slot)
        return bytes(self._buf[offset:offset + length])

    def read_view(self, slot: int) -> memoryview:
        """Zero-copy view of a record — valid only until the next page
        mutation; callers must compare/copy immediately, never hold it."""
        offset, length = self._slot_entry(slot)
        return self._mv[offset:offset + length]

    def read_bytes(self, slot: int, start: int, length: int) -> bytes:
        """Read ``length`` bytes at record-relative offset ``start``."""
        offset, reclen = self._slot_entry(slot)
        if start < 0 or start + length > reclen:
            raise StorageError(
                f"read [{start}:{start + length}] out of record of {reclen}B")
        return bytes(self._buf[offset + start:offset + start + length])

    def write_bytes(self, slot: int, start: int, data: bytes) -> None:
        """Overwrite bytes within a record in place (size unchanged)."""
        offset, reclen = self._slot_entry(slot)
        if start < 0 or start + len(data) > reclen:
            raise StorageError(
                f"write [{start}:{start + len(data)}] out of record "
                f"of {reclen}B")
        self._buf[offset + start:offset + start + len(data)] = data
        self._version = _next_version()
        # In-place writes never touch the directory, so the cached tail
        # is almost always valid — inline that branch of _content_crc.
        tail = self._tail
        if tail is not None:
            self._crc = _crc32(tail, _crc32(self._buf))
        else:
            self._crc = self._content_crc()

    def update(self, slot: int, data: bytes) -> None:
        """Replace a record's bytes; relocates within the page if resized."""
        offset, reclen = self._slot_entry(slot)
        if len(data) == reclen:
            self._buf[offset:offset + reclen] = data
            self._version = _next_version()
            self._crc = self._content_crc()
            return
        # Free the old record and try to place the new one; roll back to the
        # old image if it does not fit so the page is never left corrupted.
        old = bytes(self._buf[offset:offset + reclen])
        self._slots[slot] = (_FREE, 0)
        self._live_bytes -= reclen
        available = self.size - self.used_bytes
        if len(data) > available:
            self._place(slot, old)
            raise PageFullError(
                f"resized record of {len(data)}B does not fit "
                f"({available}B available)")
        self._place(slot, data)

    def delete(self, slot: int) -> None:
        offset, length = self._slot_entry(slot)
        self._buf[offset:offset + length] = b"\x00" * length
        self._slots[slot] = (_FREE, 0)
        self._live_bytes -= length
        self._holes = True
        self._stamp()

    def slots(self) -> Iterator[int]:
        """Yield every occupied slot number."""
        for slot, (offset, _) in enumerate(self._slots):
            if offset != _FREE:
                yield slot

    def has_slot(self, slot: int) -> bool:
        return (0 <= slot < len(self._slots)
                and self._slots[slot][0] != _FREE)

    # -- integrity ----------------------------------------------------------

    @property
    def checksum(self) -> int:
        """The CRC maintained by the mutating operations."""
        return self._crc

    def _content_crc(self) -> int:
        # Same byte stream as ``_crc_content`` (buf ‖ meta ‖ slots), with
        # the meta+slot suffix cached across buf-only mutations; crc32
        # accepts the bytearray directly — no bytes() copy per call.
        tail = self._tail
        if tail is None:
            slots = self._slots
            tail = _QQ.pack(self._free_ptr, self._live_bytes)
            if slots:
                count = len(slots) * 2
                packer = _SLOT_PACKERS.get(count)
                if packer is None:
                    packer = _SLOT_PACKERS[count] = struct.Struct(f"<{count}q")
                tail += packer.pack(*chain.from_iterable(slots))
            self._tail = tail
        return zlib.crc32(tail, zlib.crc32(self._buf))

    def verify(self) -> None:
        """Check the live page against its checksum and invariants.

        Raises :class:`PageChecksumError` on any violation.  Catches both
        corruption of the record bytes (writes that bypassed the page
        API cannot update the checksum) and structural damage to the
        slot directory.
        """
        problems: List[str] = []
        if not 0 <= self._free_ptr <= self.size:
            problems.append(f"free_ptr {self._free_ptr} out of page")
        live = 0
        for slot, (offset, length) in enumerate(self._slots):
            if offset == _FREE:
                continue
            live += length
            if offset < 0 or length < 0 or offset + length > self._free_ptr:
                problems.append(
                    f"slot {slot} [{offset}:{offset + length}] outside "
                    f"written region [0:{self._free_ptr}]")
        if live != self._live_bytes:
            problems.append(
                f"live_bytes {self._live_bytes} != slot total {live}")
        if self.used_bytes > self.size:
            problems.append(f"used {self.used_bytes}B > page {self.size}B")
        if self._content_crc() != self._crc:
            problems.append("content CRC mismatch")
        if problems:
            raise PageChecksumError("; ".join(problems))

    # -- checkpoint support -------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Deep-copyable state for fuzzy checkpoints, checksummed so a
        damaged durable image is detected at restore.

        The recorded checksum folds the *maintained* CRC, not one
        recomputed from the buffer: a page whose memory already rotted
        (a bit flip behind the page API) must not get its corruption
        laundered into a validly-checksummed durable image — the stale
        maintained CRC travels with the snapshot and restore rejects it.
        """
        state = {
            "size": self.size,
            "page_lsn": self.page_lsn,
            "buf": bytes(self._buf),
            "free_ptr": self._free_ptr,
            "slots": list(self._slots),
            "live_bytes": self._live_bytes,
        }
        state["crc"] = zlib.crc32(_META.pack(0, 0, self.page_lsn), self._crc)
        return state

    @classmethod
    def restore(cls, state: Dict[str, object],
                verify_checksum: bool = True) -> "Page":
        if verify_checksum and not snapshot_checksum_ok(state):
            raise PageChecksumError(
                f"page image checksum mismatch (recorded "
                f"{state.get('crc')}, computed {snapshot_checksum(state)})")
        page = cls(state["size"])  # type: ignore[arg-type]
        page.page_lsn = state["page_lsn"]  # type: ignore[assignment]
        page._buf = bytearray(state["buf"])  # type: ignore[arg-type]
        page._mv = memoryview(page._buf)
        page._version = _next_version()
        page._free_ptr = state["free_ptr"]  # type: ignore[assignment]
        page._slots = list(state["slots"])  # type: ignore[arg-type]
        page._live_bytes = state["live_bytes"]  # type: ignore[assignment]
        page._holes = True
        page._tail = None
        page._crc = page._content_crc()
        return page

    # -- internals ------------------------------------------------------------

    def _find_free_slot(self) -> int:
        if self._holes:
            for slot, (offset, _) in enumerate(self._slots):
                if offset == _FREE:
                    return slot
            self._holes = False
        self._slots.append((_FREE, 0))
        return len(self._slots) - 1

    def _place(self, slot: int, data: bytes) -> None:
        self._put(slot, data)
        self._stamp()

    def _put(self, slot: int, data: bytes) -> None:
        """Write a record into ``slot``, compacting first if it would run
        into the header/directory reserve; the caller ``_stamp``s."""
        if self._free_ptr + len(data) > self.size - PAGE_HEADER_BYTES \
                - len(self._slots) * SLOT_ENTRY_BYTES:
            self._compact()
        offset = self._free_ptr
        self._buf[offset:offset + len(data)] = data
        self._free_ptr += len(data)
        self._slots[slot] = (offset, len(data))
        self._live_bytes += len(data)

    def _stamp(self) -> None:
        """Close a mutation that may have touched the slot directory."""
        self._tail = None
        self._version = _next_version()
        self._crc = self._content_crc()

    def _compact(self) -> None:
        """Squeeze out holes left by deleted/moved records."""
        new_buf = bytearray(self.size)
        write_ptr = 0
        for slot, (offset, length) in enumerate(self._slots):
            if offset == _FREE:
                continue
            new_buf[write_ptr:write_ptr + length] = \
                self._buf[offset:offset + length]
            self._slots[slot] = (write_ptr, length)
            write_ptr += length
        self._buf = new_buf
        self._mv = memoryview(new_buf)
        self._free_ptr = write_ptr

    def _slot_entry(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < len(self._slots):
            raise NoSuchObjectError(f"no slot {slot} in page")
        offset, length = self._slots[slot]
        if offset == _FREE:
            raise NoSuchObjectError(f"slot {slot} is free")
        return offset, length
