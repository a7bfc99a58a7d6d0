"""The External Reference Table (ERT).

Each partition P keeps an ERT storing every reference ``R -> O`` where
``O`` belongs to P and ``R`` does not (paper §2): back pointers for
references *into* the partition.  The fuzzy traversal starts from the
ERT's referenced objects, and PQR locks the ERT's parents to quiesce the
partition.

Backed by the extendible-hash index, as in Brahmā (§5), keyed by the
referenced (child) object.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from ..index import ExtendibleHashIndex
from ..storage.oid import Oid


class ExternalReferenceTable:
    """Back-pointer table for one partition's incoming external references."""

    def __init__(self, partition_id: int, bucket_capacity: int = 8):
        self.partition_id = partition_id
        self._index = ExtendibleHashIndex(bucket_capacity=bucket_capacity)

    # -- maintenance (driven by the log analyzer) ---------------------------------

    def add(self, child: Oid, parent: Oid) -> bool:
        """Note an external reference ``parent -> child``."""
        self._check(child, parent)
        return self._index.insert(child.pack(), parent)

    def remove(self, child: Oid, parent: Oid) -> bool:
        """Forget an external reference ``parent -> child``."""
        self._check(child, parent)
        return self._index.remove(child.pack(), parent)

    # -- queries --------------------------------------------------------------------

    def parents_of(self, child: Oid) -> Set[Oid]:
        """External parents currently recorded for ``child``."""
        return self._index.get(child.pack())

    def contains(self, child: Oid, parent: Oid) -> bool:
        return self._index.contains(child.pack(), parent)

    def referenced_objects(self) -> Iterator[Oid]:
        """Objects of this partition referenced from outside — the fuzzy
        traversal's starting points (§3.4)."""
        for packed in self._index.keys():
            yield Oid.unpack(packed)

    def entries(self) -> Iterator[Tuple[Oid, Oid]]:
        """All ``(child, parent)`` pairs."""
        for packed, parent in self._index.items():
            yield Oid.unpack(packed), parent

    def all_parents(self) -> Set[Oid]:
        """Every distinct external parent — what PQR must lock (§5.1)."""
        return {parent for _, parent in self._index.items()}

    def __len__(self) -> int:
        return len(self._index)

    # -- checkpointing ------------------------------------------------------------------

    def snapshot(self) -> List[Tuple[int, int]]:
        return [(child.pack(), parent.pack())
                for child, parent in self.entries()]

    @classmethod
    def restore(cls, partition_id: int, state: List[Tuple[int, int]],
                bucket_capacity: int = 8) -> "ExternalReferenceTable":
        ert = cls(partition_id, bucket_capacity=bucket_capacity)
        for child_packed, parent_packed in state:
            ert._index.insert(child_packed, Oid.unpack(parent_packed))
        return ert

    # -- internals -------------------------------------------------------------------------

    def _check(self, child: Oid, parent: Oid) -> None:
        if child.partition != self.partition_id:
            raise ValueError(
                f"{child} is not in partition {self.partition_id}")
        if parent.partition == self.partition_id:
            raise ValueError(
                f"{parent} -> {child} is not an external reference")
