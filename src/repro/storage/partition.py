"""Partitions: the unit of reorganization.

The database is divided into partitions (paper §2); given an OID the
partition is read straight off the address.  Each partition owns a set of
slotted pages, a free-space map, and the fragmentation statistics the
compaction examples report.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import NoSuchObjectError, PageChecksumError, PartitionFullError
from .freespace import FreeSpaceMap
from .oid import Oid
from .page import PAGE_HEADER_BYTES, SLOT_ENTRY_BYTES, Page


class PartitionStats:
    """Space-usage summary used by the compaction examples and tests."""

    __slots__ = ("partition_id", "page_count", "live_objects", "live_bytes",
                 "free_bytes", "capacity_bytes")

    def __init__(self, partition_id: int, page_count: int, live_objects: int,
                 live_bytes: int, free_bytes: int, capacity_bytes: int):
        self.partition_id = partition_id
        self.page_count = page_count
        self.live_objects = live_objects
        self.live_bytes = live_bytes
        self.free_bytes = free_bytes
        self.capacity_bytes = capacity_bytes

    @property
    def fragmentation(self) -> float:
        """Fraction of allocated page space not holding live data.

        0.0 for a perfectly packed partition; approaches 1.0 as deletes
        riddle the pages with holes.
        """
        if self.capacity_bytes == 0:
            return 0.0
        return self.free_bytes / self.capacity_bytes

    def __repr__(self) -> str:
        return (f"<PartitionStats p{self.partition_id} pages={self.page_count} "
                f"objects={self.live_objects} frag={self.fragmentation:.2%}>")


class Partition:
    """A set of slotted pages addressed by ``(page, slot)``."""

    def __init__(self, partition_id: int, page_size: int,
                 max_pages: Optional[int] = None):
        self.partition_id = partition_id
        self.page_size = page_size
        self.max_pages = max_pages
        self._pages: Dict[int, Page] = {}
        self._next_page_no = 0
        self._fsm = FreeSpaceMap()
        #: Compaction floor: when callers ask for fresh-page allocation,
        #: only pages >= this number are considered.
        self.relocation_floor = 0

    # -- page management ------------------------------------------------------

    def page(self, page_no: int) -> Page:
        try:
            return self._pages[page_no]
        except KeyError:
            raise NoSuchObjectError(
                f"partition {self.partition_id} has no page {page_no}") \
                from None

    def page_numbers(self) -> Iterator[int]:
        return iter(sorted(self._pages))

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def mark_relocation_floor(self) -> int:
        """Record the boundary between old pages and fresh relocation pages.

        Compaction calls this before migrating so that every allocation with
        ``fresh_only=True`` lands in pages created afterwards.
        """
        self.relocation_floor = self._next_page_no
        return self.relocation_floor

    def _grow(self) -> int:
        if self.max_pages is not None and len(self._pages) >= self.max_pages:
            raise PartitionFullError(
                f"partition {self.partition_id} at max {self.max_pages} pages")
        page_no = self._next_page_no
        self._next_page_no += 1
        page = Page(self.page_size)
        self._pages[page_no] = page
        self._fsm.register_page(page_no, page.free_space)
        return page_no

    def drop_empty_pages(self) -> int:
        """Release pages with no live records; returns how many were freed."""
        dropped = 0
        for page_no in list(self._pages):
            if self._pages[page_no].is_empty:
                del self._pages[page_no]
                self._fsm.forget_page(page_no)
                dropped += 1
        return dropped

    # -- object-level operations ------------------------------------------------

    def allocate(self, data: bytes, fresh_only: bool = False) -> Oid:
        """Store ``data`` somewhere in the partition; returns its address."""
        return self.allocate_many((data,), fresh_only)[0]

    def allocate_many(self, datas: Sequence[bytes],
                      fresh_only: bool = False) -> List[Oid]:
        """Store each record where successive ``allocate`` calls would
        (first fit by page number); returns their addresses.  A page takes
        a run of records at a time (``Page.insert_many``): while each is no
        smaller than the last, every lower page is still too full for it.
        """
        min_page = self.relocation_floor if fresh_only else 0
        oids: List[Oid] = []
        while len(oids) < len(datas):
            size = len(datas[len(oids)])
            page_no = self._fsm.find_page(size, min_page=min_page)
            if page_no is None:
                if size > self.page_size - PAGE_HEADER_BYTES \
                        - SLOT_ENTRY_BYTES:
                    raise PartitionFullError(
                        f"object of {size}B larger than a fresh page")
                page_no = self._grow()
            page = self._pages[page_no]
            slots = page.insert_many(datas, len(oids))
            self._fsm.update(page_no, page.free_space)
            oids.extend([Oid(self.partition_id, page_no, slot)
                         for slot in slots])
        return oids

    def allocate_at(self, oid: Oid, data: bytes) -> None:
        """Recreate a record at an exact address (recovery redo path)."""
        self._require_mine(oid)
        while oid.page >= self._next_page_no:
            self._grow()
        if oid.page not in self._pages:
            # Page was dropped (e.g. empty after a crash mid-reorg): recreate.
            page = Page(self.page_size)
            self._pages[oid.page] = page
            self._fsm.register_page(oid.page, page.free_space)
        page = self._pages[oid.page]
        page.insert_at(oid.slot, data)
        self._fsm.update(oid.page, page.free_space)

    def read(self, oid: Oid) -> bytes:
        return self._page_of(oid).read(oid.slot)

    def read_bytes(self, oid: Oid, start: int, length: int) -> bytes:
        return self._page_of(oid).read_bytes(oid.slot, start, length)

    def write_bytes(self, oid: Oid, start: int, data: bytes) -> None:
        self._page_of(oid).write_bytes(oid.slot, start, data)

    def update(self, oid: Oid, data: bytes) -> None:
        """Replace a record in place (may raise ``PageFullError`` on grow)."""
        page = self._page_of(oid)
        page.update(oid.slot, data)
        self._fsm.update(oid.page, page.free_space)

    def free(self, oid: Oid) -> None:
        page = self._page_of(oid)
        page.delete(oid.slot)
        self._fsm.update(oid.page, page.free_space)

    def exists(self, oid: Oid) -> bool:
        if oid.partition != self.partition_id or oid.page not in self._pages:
            return False
        return self._pages[oid.page].has_slot(oid.slot)

    def live_oids(self) -> Iterator[Oid]:
        """Every allocated object address, in (page, slot) order."""
        for page_no in sorted(self._pages):
            for slot in self._pages[page_no].slots():
                yield Oid(self.partition_id, page_no, slot)

    def adopt_page(self, page_no: int, page: Page) -> None:
        """Install a rebuilt page image (single-page repair)."""
        if page.size != self.page_size:
            raise ValueError(
                f"page size {page.size} != partition's {self.page_size}")
        while page_no >= self._next_page_no:
            self._next_page_no += 1
        self._pages[page_no] = page
        self._fsm.register_page(page_no, page.free_space)

    def verify_pages(self) -> List[str]:
        """Checksum/invariant sweep over every live page; returns the
        violations found (empty = clean)."""
        problems: List[str] = []
        for page_no in sorted(self._pages):
            try:
                self._pages[page_no].verify()
            except PageChecksumError as exc:
                problems.append(
                    f"partition {self.partition_id} page {page_no}: {exc}")
        return problems

    def set_page_lsn(self, page_no: int, lsn: int) -> None:
        self.page(page_no).page_lsn = lsn

    def page_lsn(self, page_no: int) -> int:
        if page_no not in self._pages:
            return 0
        return self._pages[page_no].page_lsn

    # -- statistics / checkpoint --------------------------------------------------

    def stats(self) -> PartitionStats:
        live_objects = 0
        live_bytes = 0
        free_bytes = 0
        for page in self._pages.values():
            live_objects += page.live_slot_count
            live_bytes += page.used_bytes
            free_bytes += page.free_space
        return PartitionStats(
            partition_id=self.partition_id,
            page_count=len(self._pages),
            live_objects=live_objects,
            live_bytes=live_bytes,
            free_bytes=free_bytes,
            capacity_bytes=len(self._pages) * self.page_size,
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "partition_id": self.partition_id,
            "page_size": self.page_size,
            "max_pages": self.max_pages,
            "next_page_no": self._next_page_no,
            "relocation_floor": self.relocation_floor,
            "pages": {no: page.snapshot() for no, page in self._pages.items()},
        }

    @classmethod
    def restore(cls, state: Dict[str, object],
                corrupt_sink: Optional[List[Tuple[int, int]]] = None
                ) -> "Partition":
        """Rebuild from a snapshot, verifying each page's checksum.

        A checksum-failing page raises :class:`PageChecksumError` —
        unless ``corrupt_sink`` is given, in which case the damaged page
        is replaced by an empty placeholder and ``(partition_id,
        page_no)`` is appended to the sink for the caller (restart
        recovery) to repair from an older image plus the log.
        """
        part = cls(state["partition_id"], state["page_size"],  # type: ignore
                   state["max_pages"])  # type: ignore[arg-type]
        part._next_page_no = state["next_page_no"]  # type: ignore[assignment]
        part.relocation_floor = state["relocation_floor"]  # type: ignore
        for page_no, page_state in state["pages"].items():  # type: ignore
            try:
                page = Page.restore(page_state)
            except PageChecksumError:
                if corrupt_sink is None:
                    raise
                corrupt_sink.append((part.partition_id, page_no))
                page = Page(part.page_size)
            part._pages[page_no] = page
            part._fsm.register_page(page_no, page.free_space)
        return part

    # -- internals ------------------------------------------------------------

    def _page_of(self, oid: Oid) -> Page:
        self._require_mine(oid)
        return self.page(oid.page)

    def _require_mine(self, oid: Oid) -> None:
        if oid.partition != self.partition_id:
            raise NoSuchObjectError(
                f"{oid} does not belong to partition {self.partition_id}")
