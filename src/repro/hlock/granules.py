"""Granule keys for the partition → page → object lock hierarchy.

The lock table is keyed by arbitrary hashable keys; objects lock under
their physical :class:`~repro.storage.oid.Oid` exactly as before, and the
hierarchical manager adds two ancestor key types above them.  Because the
paper's OIDs *are* physical addresses, the granule path of an object is a
pure projection of its OID — ``Oid(p, g, s)`` lives under
``PageGranule(p, g)`` under ``PartitionGranule(p)`` — so granule paths
stay correct across reorganizer migrations for free: a migrated object
has a new OID and therefore, automatically, a new granule path.

Both granule types are ``NamedTuple``\\ s like ``Oid`` itself, so they are
hashable, ordered, cheap, and (having one and two fields against the
OID's three) can never collide with an object key in the shared table.
"""

from __future__ import annotations

from typing import NamedTuple

from ..storage.oid import Oid


class PartitionGranule(NamedTuple):
    """Coarsest granule: one per storage partition."""

    partition: int

    def __repr__(self) -> str:
        return f"part:{self.partition}"

    __str__ = __repr__


class PageGranule(NamedTuple):
    """Middle granule: one per page of a partition."""

    partition: int
    page: int

    def __repr__(self) -> str:
        return f"page:{self.partition}:{self.page}"

    __str__ = __repr__


def descendant_of(key, coarse) -> bool:
    """True iff lock-table key ``key`` lies strictly below ``coarse`` in
    the granule tree."""
    if type(coarse) is PageGranule:
        return (type(key) is Oid and key.partition == coarse.partition
                and key.page == coarse.page)
    if type(coarse) is PartitionGranule:
        return ((type(key) is Oid or type(key) is PageGranule)
                and key.partition == coarse.partition)
    return False
