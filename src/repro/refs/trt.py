"""The Temporary Reference Table (TRT).

A transient per-partition table, existing only while a reorganization is
in progress (paper §3.3, §4.5), logging every pointer insert and delete
whose *referenced* object lives in the partition.  Tuples have the form
``(O, R, tid, action)``: transaction ``tid`` inserted/deleted a reference
to ``O`` from parent ``R``.

Find_Exact_Parents drains tuples for the object being migrated; the fuzzy
traversal reseeds from referenced objects it has not visited (Lemma 3.1).

Space optimizations (§4.5), applied when the engine runs strict 2PL:

* when the transaction that logged a pointer *delete* completes, the
  delete tuple can be purged (any reinsert by it is separately logged);
* when a transaction that deleted ``R -> O`` commits, any *insert* tuple
  for the same ``R -> O`` can be purged as well.

When transactions do not follow strict 2PL, delete tuples must be kept
(another transaction may have seen the reference and reinsert it later).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from ..index import ExtendibleHashIndex
from ..storage.oid import Oid

ACTION_INSERT = "I"
ACTION_DELETE = "D"


@dataclass(frozen=True)
class TrtEntry:
    """One logged pointer action: ``(O, R, tid, action)``.

    ``seq`` orders tuples within the table: a transaction may delete and
    then *re-insert* the very same reference (e.g. re-pointing a slot back
    and forth), and the §4.5 purge must only erase insert tuples recorded
    *before* the matching delete — the re-insert after it is a live parent
    the reorganizer still has to discover.
    """

    child: Oid     # O — the referenced object (in this partition)
    parent: Oid    # R — the referencer
    tid: int
    action: str    # ACTION_INSERT or ACTION_DELETE
    seq: int = 0

    def __repr__(self) -> str:
        return (f"TrtEntry({self.child}<-{self.parent} {self.action} "
                f"t{self.tid} #{self.seq})")


class TrtStats:
    __slots__ = ("recorded", "purged", "drained", "peak_size")

    def __init__(self) -> None:
        self.recorded = 0
        self.purged = 0
        self.drained = 0
        self.peak_size = 0


class TemporaryReferenceTable:
    """Per-partition insert/delete log, backed by extendible hashing."""

    def __init__(self, partition_id: int, bucket_capacity: int = 8):
        self.partition_id = partition_id
        self._index = ExtendibleHashIndex(bucket_capacity=bucket_capacity)
        self._by_tid: Dict[int, Set[TrtEntry]] = {}
        self._size = 0
        self._next_seq = 1
        #: Objects created in this partition while the TRT is active
        #: (paper §2 footnote 6: the reorganizer will not migrate them,
        #: and a garbage-collecting run must never classify them as
        #: garbage — their creator may still be about to link them).
        self.created_since_activation: Set[Oid] = set()
        self.stats = TrtStats()

    def record_creation(self, oid: Oid) -> None:
        if oid.partition != self.partition_id:
            raise ValueError(f"{oid} is not in partition {self.partition_id}")
        self.created_since_activation.add(oid)

    # -- recording (driven by the log analyzer) --------------------------------

    def record_insert(self, child: Oid, parent: Oid, tid: int) -> None:
        self._record(TrtEntry(child, parent, tid, ACTION_INSERT,
                              self._take_seq()))

    def record_delete(self, child: Oid, parent: Oid, tid: int) -> None:
        self._record(TrtEntry(child, parent, tid, ACTION_DELETE,
                              self._take_seq()))

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _record(self, entry: TrtEntry) -> None:
        if entry.child.partition != self.partition_id:
            raise ValueError(
                f"{entry.child} is not in partition {self.partition_id}")
        if self._index.insert(entry.child.pack(), entry):
            self._size += 1
            self._by_tid.setdefault(entry.tid, set()).add(entry)
            self.stats.recorded += 1
            self.stats.peak_size = max(self.stats.peak_size, self._size)

    # -- consumption by the reorganizer --------------------------------------------

    def entries_for(self, child: Oid) -> Set[TrtEntry]:
        """All tuples whose referenced object is ``child`` (a copy)."""
        return self._index.get(child.pack())

    def pop_entry(self, entry: TrtEntry) -> bool:
        """Remove one tuple (Find_Exact_Parents deletes tuples it handles)."""
        if self._index.remove(entry.child.pack(), entry):
            self._size -= 1
            self._forget_tid_link(entry)
            self.stats.drained += 1
            return True
        return False

    def has_entries_for(self, child: Oid) -> bool:
        return child.pack() in self._index

    def referenced_objects(self) -> Iterator[Oid]:
        """Distinct referenced objects with live tuples — the traversal
        reseeding set of Fig. 3's L2 loop."""
        seen = set()
        for packed in self._index.keys():
            if packed not in seen:
                seen.add(packed)
                yield Oid.unpack(packed)

    def all_parents(self) -> Set[Oid]:
        """Every distinct parent in the table — what PQR must lock (§5.1)."""
        return {entry.parent for _, entry in self._index.items()}

    def entries(self) -> List[TrtEntry]:
        """Every live tuple in recording order."""
        return sorted((entry for _, entry in self._index.items()),
                      key=lambda e: e.seq)

    # -- §4.5 space optimization -----------------------------------------------------

    def on_transaction_end(self, tid: int, strict_2pl: bool) -> int:
        """Purge tuples made obsolete by ``tid`` completing.

        Returns the number of tuples purged.  No-op (and must be, for
        correctness) when transactions do not follow strict 2PL.
        """
        if not strict_2pl:
            return 0
        entries = self._by_tid.pop(tid, None)
        if not entries:
            return 0
        purged = 0
        for entry in entries:
            if entry.action != ACTION_DELETE:
                continue
            if self._index.remove(entry.child.pack(), entry):
                self._size -= 1
                purged += 1
            # The deleting transaction committed or aborted; an insert tuple
            # for the very same reference recorded *before* the delete is
            # now redundant (§4.5).  A later re-insert of the same
            # reference is a live parent and must survive.
            for other in list(self._index.get(entry.child.pack())):
                if other.action == ACTION_INSERT and \
                        other.parent == entry.parent and \
                        other.seq < entry.seq:
                    if self._index.remove(entry.child.pack(), other):
                        self._size -= 1
                        self._forget_tid_link(other)
                        purged += 1
        # Surviving insert tuples of tid stay in the table until drained by
        # Find_Exact_Parents; no per-tid link is needed once tid has ended.
        self.stats.purged += purged
        return purged

    def _forget_tid_link(self, entry: TrtEntry) -> None:
        linked = self._by_tid.get(entry.tid)
        if linked is not None:
            linked.discard(entry)
            if not linked:
                del self._by_tid[entry.tid]

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"<TRT p{self.partition_id} tuples={self._size}>"
