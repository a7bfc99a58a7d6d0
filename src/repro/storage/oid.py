"""Physical object identifiers.

The whole point of the paper is that references are *physical*: an OID is
the actual storage address of the object — ``(partition, page, slot)`` —
not a logical identifier resolved through an indirection table.  Migrating
an object therefore changes its OID, and every parent holding the old OID
must be patched.

OIDs pack into a 64-bit integer (16-bit partition, 32-bit page, 16-bit
slot) which is exactly how they are stored inside object images on pages.
The all-ones value is the NULL reference.
"""

from __future__ import annotations

from typing import NamedTuple

_PARTITION_BITS = 16
_PAGE_BITS = 32
_SLOT_BITS = 16

MAX_PARTITION = (1 << _PARTITION_BITS) - 1
MAX_PAGE = (1 << _PAGE_BITS) - 1
MAX_SLOT = (1 << _SLOT_BITS) - 1

#: Packed representation of the NULL reference (empty ref slot).
NULL_REF = (1 << 64) - 1

_new_tuple = tuple.__new__


class Oid(NamedTuple):
    """A physical object address: ``(partition, page, slot)``.

    Immutable and hashable, so OIDs serve directly as dict/set keys in the
    lock manager, ERT, TRT and parent lists.
    """

    partition: int
    page: int
    slot: int

    def pack(self) -> int:
        """Encode as the 64-bit integer stored inside object images."""
        return (self.partition << (_PAGE_BITS + _SLOT_BITS)) | \
               (self.page << _SLOT_BITS) | self.slot

    @classmethod
    def unpack(cls, value: int) -> "Oid":
        """Decode a packed 64-bit OID (must not be ``NULL_REF``)."""
        if value == NULL_REF:
            raise ValueError("cannot unpack NULL_REF into an Oid")
        if not 0 <= value < NULL_REF:
            raise ValueError(f"packed oid out of range: {value:#x}")
        # The tuple built directly: a NamedTuple's keyword constructor
        # costs about three times as much, on every OID the WAL decodes.
        return _new_tuple(cls, (value >> (_PAGE_BITS + _SLOT_BITS),
                                (value >> _SLOT_BITS) & MAX_PAGE,
                                value & MAX_SLOT))

    def validate(self) -> "Oid":
        """Raise ``ValueError`` unless every component is in range."""
        if not 0 <= self.partition <= MAX_PARTITION:
            raise ValueError(f"partition out of range: {self.partition}")
        if not 0 <= self.page <= MAX_PAGE:
            raise ValueError(f"page out of range: {self.page}")
        if not 0 <= self.slot <= MAX_SLOT:
            raise ValueError(f"slot out of range: {self.slot}")
        return self

    def __repr__(self) -> str:
        return f"Oid({self.partition}:{self.page}:{self.slot})"

    def __str__(self) -> str:
        return f"{self.partition}:{self.page}:{self.slot}"
