"""The object store: partitions + object-level operations.

This is the physical layer the transaction system and the reorganizer sit
on.  It knows nothing about locks, logging or transactions — it applies
byte-level operations (which is what makes it reusable by both the normal
execution path and recovery redo).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import NoSuchObjectError, NoSuchPartitionError, RefSlotError
from .objects import ObjectImage, payload_offset, ref_slot_offset
from .oid import NULL_REF, Oid
from .page import Page
from .partition import Partition, PartitionStats

_REF = struct.Struct("<Q")


class ObjectStore:
    """All partitions of one database."""

    def __init__(self, page_size: int = 4096):
        self.page_size = page_size
        self._partitions: Dict[int, Partition] = {}
        # Decoded-image cache: oid -> [page version, raw bytes, decoded
        # image, children tuple or None, owning Page].  Two validation
        # tiers: if the owning page's mutation stamp is unchanged since
        # the entry was (re)validated, nothing on the page moved — one
        # integer compare and no partition/page lookup at all (the Page
        # object rides in the entry; pages are never swapped out from
        # under a live oid — every path that removes one first frees its
        # records, which pops their entries, and ``adopt_page`` below
        # invalidates explicitly).  After any page mutation the entry
        # falls back to a memcmp against the freshly-read raw bytes, so
        # byte-level mutations — in-place writes, replaces, recovery
        # redo — still invalidate it naturally and the cache can never
        # serve stale content.  Random-walk workloads re-read the same
        # objects many times; decoding, then the per-read view + memcmp,
        # dominated the bench profile.
        self._image_cache: Dict[Oid, list] = {}

    # -- partition management ---------------------------------------------------

    def create_partition(self, partition_id: int,
                         max_pages: Optional[int] = None) -> Partition:
        if partition_id in self._partitions:
            raise ValueError(f"partition {partition_id} already exists")
        part = Partition(partition_id, self.page_size, max_pages)
        self._partitions[partition_id] = part
        return part

    def ensure_partition(self, partition_id: int) -> Partition:
        """Get-or-create a partition (recovery redo creates them lazily:
        partition creation itself is not logged)."""
        if partition_id not in self._partitions:
            return self.create_partition(partition_id)
        return self._partitions[partition_id]

    def drop_partition(self, partition_id: int) -> None:
        """Remove an (evacuated) partition entirely — copying-GC reclaim."""
        self.partition(partition_id)  # raise if unknown
        del self._partitions[partition_id]
        for oid in [o for o in self._image_cache if o.partition == partition_id]:
            del self._image_cache[oid]

    def partition(self, partition_id: int) -> Partition:
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise NoSuchPartitionError(
                f"no partition {partition_id}") from None

    def has_partition(self, partition_id: int) -> bool:
        return partition_id in self._partitions

    def partition_ids(self) -> List[int]:
        return sorted(self._partitions)

    # -- whole-object operations --------------------------------------------------

    def allocate_object(self, partition_id: int, image: ObjectImage,
                        fresh_only: bool = False) -> Oid:
        part = self.partition(partition_id)
        raw = image.encode()
        oid = part.allocate(raw, fresh_only=fresh_only)
        # Seed the image cache from the bytes just placed: bulk loads and
        # migrations read every freshly-created object right back, and
        # this spares them the first-touch page read + decode.  A copy is
        # cached — the caller keeps ownership of ``image``.
        page = part._pages[oid.page]
        self._image_cache[oid] = [page._version, raw, image.copy(), None, page]
        return oid

    def allocate_object_at(self, oid: Oid, image: ObjectImage) -> None:
        part = self.partition(oid.partition)
        raw = image.encode()
        part.allocate_at(oid, raw)
        page = part._pages[oid.page]
        self._image_cache[oid] = [page._version, raw, image.copy(), None, page]

    def _cached_entry(self, oid: Oid) -> list:
        """The validated ``[version, raw, image, children, page]`` entry.

        The returned image is the shared cached instance — callers must
        either copy it before handing it out or mutate it only in
        lockstep with the underlying page bytes (patching ``version``
        and ``raw`` too, so both validation tiers stay satisfied).
        """
        cached = self._image_cache.get(oid)
        if cached is not None and cached[0] == cached[4]._version:
            # Page untouched since validation: the slot was live and
            # identical then, so it still is.  (The cached Page is the
            # live one — see the cache invariant above.)
            return cached
        part = self._partitions.get(oid.partition)
        if part is None:
            raise NoSuchPartitionError(f"no partition {oid.partition}")
        # ``Partition._page_of``'s ownership check is vacuous here (the
        # partition was just looked up from ``oid.partition``), so go to
        # the page directly.
        page = part._pages.get(oid.page)
        if page is None:
            raise NoSuchObjectError(
                f"partition {oid.partition} has no page {oid.page}")
        view = page.read_view(oid.slot)
        if cached is not None and cached[1] == view:
            cached[0] = page._version
            cached[4] = page
            return cached
        raw = bytes(view)
        entry = [page._version, raw, ObjectImage.decode(raw), None, page]
        self._image_cache[oid] = entry
        return entry

    def read_object(self, oid: Oid) -> ObjectImage:
        return self._cached_entry(oid)[2].copy()

    def read_object_with_children(self, oid: Oid
                                  ) -> Tuple[ObjectImage, Tuple[Oid, ...]]:
        """One cache hit for the hot transactional read: a private copy
        of the image plus its non-null children (a shared tuple)."""
        entry = self._cached_entry(oid)
        children = entry[3]
        if children is None:
            children = entry[3] = tuple(
                ref for ref in entry[2]._refs if ref is not None)
        return entry[2].copy(), children

    def read_raw(self, oid: Oid) -> bytes:
        return self.partition(oid.partition).read(oid)

    def replace_object(self, oid: Oid, image: ObjectImage) -> None:
        """In-place full rewrite (may raise ``PageFullError`` on grow)."""
        self.partition(oid.partition).update(oid, image.encode())

    def free_object(self, oid: Oid) -> None:
        self.partition(oid.partition).free(oid)
        self._image_cache.pop(oid, None)

    def exists(self, oid: Oid) -> bool:
        if oid.partition not in self._partitions:
            return False
        return self._partitions[oid.partition].exists(oid)

    def live_oids(self, partition_id: int) -> Iterator[Oid]:
        return self.partition(partition_id).live_oids()

    def all_live_oids(self) -> Iterator[Oid]:
        for partition_id in self.partition_ids():
            yield from self._partitions[partition_id].live_oids()

    # -- sub-record operations (the physical ops WAL records describe) -------------

    def ref_capacity(self, oid: Oid) -> int:
        return self._cached_entry(oid)[2].ref_capacity

    def get_ref(self, oid: Oid, index: int) -> Optional[Oid]:
        image = self._cached_entry(oid)[2]
        if not 0 <= index < image.ref_capacity:
            raise RefSlotError(f"ref slot {index} out of range for {oid}")
        return image.get_ref(index)

    def set_ref(self, oid: Oid, index: int, child: Optional[Oid]) -> None:
        """Overwrite one reference slot in place — an 8-byte physical write."""
        entry = self._cached_entry(oid)
        image = entry[2]
        if not 0 <= index < image.ref_capacity:
            raise RefSlotError(f"ref slot {index} out of range for {oid}")
        data = _REF.pack(NULL_REF if child is None else child.pack())
        offset = ref_slot_offset(index)
        # ``_cached_entry`` just validated the entry's page, so write
        # through it directly (``Partition.write_bytes`` adds only
        # re-validation; in-place writes never change free space).
        page = entry[4]
        page.write_bytes(oid.slot, offset, data)
        # Patch the cache in lockstep with the page bytes instead of
        # letting the raw-bytes check evict it — hot objects are re-read
        # right after every update.  The write bumped the page's version,
        # so refresh the stamp too; the children tuple is stale now.
        raw = entry[1]
        image.set_ref(index, child)
        entry[0] = page._version
        entry[1] = raw[:offset] + data + raw[offset + _REF.size:]
        entry[3] = None

    def get_payload(self, oid: Oid) -> bytes:
        return self._cached_entry(oid)[2].payload

    def set_payload_bytes(self, oid: Oid, start: int, data: bytes) -> None:
        """Overwrite payload bytes in place (no size change)."""
        entry = self._cached_entry(oid)
        image = entry[2]
        plen = len(image.payload)
        if start < 0 or start + len(data) > plen:
            raise NoSuchObjectError(
                f"payload write [{start}:{start + len(data)}] out of "
                f"{plen}B payload of {oid}")
        offset = payload_offset(image.ref_capacity) + start
        page = entry[4]
        page.write_bytes(oid.slot, offset, data)
        new_raw = entry[1][:offset] + data + entry[1][offset + len(data):]
        image.payload = new_raw[payload_offset(image.ref_capacity):]
        entry[0] = page._version
        entry[1] = new_raw

    def children_tuple(self, oid: Oid) -> Tuple[Oid, ...]:
        """Non-null references out of an object, in slot order — the
        cache's shared tuple, which callers must not mutate."""
        # Flattened cache hit (the random walk calls this per step):
        # one dict get + version compare, no ``_cached_entry`` frame.
        entry = self._image_cache.get(oid)
        if entry is None or entry[0] != entry[4]._version:
            entry = self._cached_entry(oid)
        children = entry[3]
        if children is None:
            children = entry[3] = tuple(
                ref for ref in entry[2]._refs if ref is not None)
        return children

    def children_of(self, oid: Oid) -> List[Oid]:
        """Non-null references out of an object (decoding only the slots)."""
        return list(self.children_tuple(oid))

    # -- bookkeeping --------------------------------------------------------------

    def set_page_lsn(self, oid: Oid, lsn: int) -> None:
        self.partition(oid.partition).set_page_lsn(oid.page, lsn)

    def page_lsn(self, oid: Oid) -> int:
        if oid.partition not in self._partitions:
            return 0
        return self._partitions[oid.partition].page_lsn(oid.page)

    def stats(self, partition_id: int) -> PartitionStats:
        return self.partition(partition_id).stats()

    # -- integrity ----------------------------------------------------------------

    def verify_pages(self) -> List[str]:
        """Checksum/invariant sweep over every page of every partition."""
        problems: List[str] = []
        for partition_id in self.partition_ids():
            problems.extend(self._partitions[partition_id].verify_pages())
        return problems

    def adopt_page(self, partition_id: int, page_no: int,
                   page: Page) -> None:
        """Install a rebuilt page (single-page repair)."""
        self.ensure_partition(partition_id).adopt_page(page_no, page)
        # The only path that swaps a Page object out from under live
        # oids — drop the cache entries that still hold the old one.
        for oid in [o for o in self._image_cache
                    if o.partition == partition_id and o.page == page_no]:
            del self._image_cache[oid]

    def snapshot(self) -> Dict[str, object]:
        return {
            "page_size": self.page_size,
            "partitions": {pid: part.snapshot()
                           for pid, part in self._partitions.items()},
        }

    @classmethod
    def restore(cls, state: Dict[str, object],
                corrupt_sink: Optional[List[Tuple[int, int]]] = None
                ) -> "ObjectStore":
        """Rebuild from a snapshot.  With ``corrupt_sink``, checksum-
        failing pages become empty placeholders listed in the sink
        instead of raising (see :meth:`Partition.restore`)."""
        store = cls(page_size=state["page_size"])  # type: ignore[arg-type]
        for pid, part_state in state["partitions"].items():  # type: ignore
            store._partitions[pid] = Partition.restore(
                part_state, corrupt_sink=corrupt_sink)
        return store

    def __repr__(self) -> str:
        return f"<ObjectStore partitions={self.partition_ids()}>"
