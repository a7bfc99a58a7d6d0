"""On-page object format.

An object is a fixed-capacity array of reference slots plus an opaque
payload::

    +--------+-----------+----------------------+------------------+
    | ncap u16 | plen u16 | ncap x u64 ref slots | plen payload ... |
    +--------+-----------+----------------------+------------------+

Reference slots hold packed OIDs; empty slots hold ``NULL_REF``.  The slot
array's *capacity* is fixed at creation, so inserting or deleting a
reference never changes the object's size — updates are always in place
(one 8-byte write), which is what makes reference updates cheap,
physically-loggable operations.  Growing the *payload* past its original
size can overflow the page; that relocation pressure is precisely the
schema-evolution motivation in the paper's introduction.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ObjectFormatError, RefSlotError
from .oid import NULL_REF, Oid

_HEADER = struct.Struct("<HH")
_REF = struct.Struct("<Q")
#: Cached packers for whole ref-slot arrays, keyed by capacity: objects
#: are decoded on every transactional read, so the per-slot
#: ``Struct.unpack_from`` loop was a measurable bench hotspot.
_REF_ARRAYS: dict = {}

# Oid field extraction, inlined from Oid.unpack (the bounds checks there
# are redundant for values read back from our own pages).
_SLOT_MASK = (1 << 16) - 1
_PAGE_MASK = (1 << 32) - 1

#: Interned Oids keyed by packed value.  Oid is an immutable NamedTuple,
#: so sharing instances is safe; a random-walk bench decodes the same few
#: thousand objects hundreds of thousands of times, and the tuple
#: construction per slot showed up in the profile.
_OID_INTERN: dict = {}


def _ref_array(count: int) -> struct.Struct:
    packer = _REF_ARRAYS.get(count)
    if packer is None:
        packer = _REF_ARRAYS[count] = struct.Struct(f"<{count}Q")
    return packer

#: Byte offset of reference slot ``i`` within an object image.
def ref_slot_offset(index: int) -> int:
    return _HEADER.size + index * _REF.size


def payload_offset(ref_capacity: int) -> int:
    """Byte offset of the payload region within an object image."""
    return _HEADER.size + ref_capacity * _REF.size


class ObjectImage:
    """A decoded object: reference slots + payload.

    This is a *value* type — reading an object from the store hands you a
    private copy; mutations only take effect when written back (by the
    transaction layer, which also logs them).
    """

    __slots__ = ("_refs", "payload")

    def __init__(self, refs: Sequence[Optional[Oid]], payload: bytes = b""):
        self._refs: List[Optional[Oid]] = list(refs)
        self.payload = bytes(payload)

    # -- construction ------------------------------------------------------

    @classmethod
    def new(cls, ref_capacity: int, payload: bytes = b"",
            refs: Sequence[Oid] = ()) -> "ObjectImage":
        """Create an image with ``ref_capacity`` slots, the first ``len(refs)``
        filled in order."""
        if len(refs) > ref_capacity:
            raise RefSlotError(
                f"{len(refs)} refs do not fit in {ref_capacity} slots")
        slots: List[Optional[Oid]] = list(refs)
        slots.extend([None] * (ref_capacity - len(refs)))
        return cls(slots, payload)

    @classmethod
    def decode(cls, data: bytes) -> "ObjectImage":
        """Decode an on-page image."""
        if len(data) < _HEADER.size:
            raise ObjectFormatError(f"image too short: {len(data)} bytes")
        ncap, plen = _HEADER.unpack_from(data, 0)
        expected = payload_offset(ncap) + plen
        if len(data) != expected:
            raise ObjectFormatError(
                f"image length {len(data)} != expected {expected} "
                f"(ncap={ncap}, plen={plen})")
        offset = _HEADER.size
        if ncap:
            packed_refs = _ref_array(ncap).unpack_from(data, offset)
            intern = _OID_INTERN
            refs: List[Optional[Oid]] = []
            append = refs.append
            for packed in packed_refs:
                if packed == NULL_REF:
                    append(None)
                    continue
                oid = intern.get(packed)
                if oid is None:
                    oid = intern[packed] = Oid(
                        packed >> 48, (packed >> 16) & _PAGE_MASK,
                        packed & _SLOT_MASK)
                append(oid)
            offset += ncap * _REF.size
        else:
            refs = []
        return cls(refs, data[offset:])

    def encode(self) -> bytes:
        """Encode to the on-page byte format."""
        refs = self._refs
        if refs:
            body = _ref_array(len(refs)).pack(
                *[NULL_REF if ref is None else ref.pack() for ref in refs])
        else:
            body = b""
        return _HEADER.pack(len(refs), len(self.payload)) + body + self.payload

    # -- reference slots ---------------------------------------------------

    @property
    def ref_capacity(self) -> int:
        return len(self._refs)

    @property
    def size(self) -> int:
        """Encoded size in bytes."""
        return payload_offset(len(self._refs)) + len(self.payload)

    def get_ref(self, index: int) -> Optional[Oid]:
        self._check_index(index)
        return self._refs[index]

    def set_ref(self, index: int, child: Optional[Oid]) -> None:
        self._check_index(index)
        self._refs[index] = child

    def refs(self) -> Iterator[Tuple[int, Oid]]:
        """Yield ``(slot_index, child_oid)`` for every non-null slot."""
        for index, ref in enumerate(self._refs):
            if ref is not None:
                yield index, ref

    def children(self) -> List[Oid]:
        """All non-null referenced OIDs, in slot order (may repeat)."""
        return [ref for ref in self._refs if ref is not None]

    def slots_referencing(self, child: Oid) -> List[int]:
        """Indices of every slot holding a reference to ``child``."""
        return [i for i, ref in enumerate(self._refs) if ref == child]

    def free_slot(self) -> int:
        """Index of the first empty reference slot.

        Raises :class:`RefSlotError` when the slot array is full — the
        object was created without enough capacity for this insert.
        """
        for index, ref in enumerate(self._refs):
            if ref is None:
                return index
        raise RefSlotError("no free reference slot")

    def references(self, child: Oid) -> bool:
        """True if any slot holds a reference to ``child``."""
        return child in self._refs

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._refs):
            raise RefSlotError(
                f"ref slot {index} out of range 0..{len(self._refs) - 1}")

    # -- misc ----------------------------------------------------------------

    def copy(self) -> "ObjectImage":
        # Bypasses ``__init__``: the refs list is copied directly and the
        # payload is immutable ``bytes`` already, so re-wrapping both
        # through the constructor is pure overhead on the hottest read
        # path (every transactional read hands out a copy).
        new = ObjectImage.__new__(ObjectImage)
        new._refs = self._refs[:]
        new.payload = self.payload
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectImage):
            return NotImplemented
        return self._refs == other._refs and self.payload == other.payload
