"""Unit tests for partitions and free-space management."""

import pytest

from repro.storage import (
    NoSuchObjectError,
    Oid,
    Partition,
    PartitionFullError,
)
from repro.storage.freespace import FreeSpaceMap


def test_allocate_read_roundtrip():
    part = Partition(1, page_size=256)
    oid = part.allocate(b"hello")
    assert oid.partition == 1
    assert part.read(oid) == b"hello"
    assert part.exists(oid)


def test_allocation_grows_pages():
    part = Partition(1, page_size=128)
    oids = [part.allocate(b"x" * 40) for _ in range(10)]
    assert part.page_count > 1
    assert len({oid for oid in oids}) == 10


def test_free_and_reuse():
    part = Partition(1, page_size=256)
    oid = part.allocate(b"x" * 32)
    part.free(oid)
    assert not part.exists(oid)
    again = part.allocate(b"y" * 32)
    assert again == oid  # first-fit reuses the hole


def test_fresh_only_allocation_respects_floor():
    part = Partition(1, page_size=256)
    for _ in range(4):
        part.allocate(b"x" * 64)
    floor = part.mark_relocation_floor()
    oid = part.allocate(b"y" * 64, fresh_only=True)
    assert oid.page >= floor


def test_max_pages_enforced():
    part = Partition(1, page_size=128, max_pages=2)
    with pytest.raises(PartitionFullError):
        for _ in range(100):
            part.allocate(b"x" * 40)


def test_object_larger_than_page_rejected():
    part = Partition(1, page_size=128)
    with pytest.raises(PartitionFullError):
        part.allocate(b"x" * 500)


def test_refused_oversize_allocations_leave_the_partition_as_it_was():
    part = Partition(1, page_size=4096, max_pages=2)
    before = repr(part.stats())
    for _ in range(3):
        with pytest.raises(PartitionFullError):
            part.allocate(b"x" * 5000)
    assert part.page_count == 0
    assert repr(part.stats()) == before
    assert len(part._fsm) == 0
    # The refusals spent none of the two-page budget.
    oids = [part.allocate(b"y" * 2000) for _ in range(3)]
    assert [oid.page for oid in oids] == [0, 0, 1]


def test_foreign_oid_rejected():
    part = Partition(1, page_size=256)
    with pytest.raises(NoSuchObjectError):
        part.read(Oid(2, 0, 0))


def test_allocate_at_recreates_exact_address():
    part = Partition(1, page_size=256)
    part.allocate_at(Oid(1, 3, 5), b"redo")
    assert part.read(Oid(1, 3, 5)) == b"redo"
    assert part.page_count >= 1


def test_live_oids_in_address_order():
    part = Partition(1, page_size=128)
    oids = [part.allocate(b"x" * 30) for _ in range(8)]
    part.free(oids[3])
    live = list(part.live_oids())
    assert live == sorted(live)
    assert oids[3] not in live
    assert len(live) == 7


def test_drop_empty_pages():
    part = Partition(1, page_size=128)
    oids = [part.allocate(b"x" * 40) for _ in range(6)]
    pages_before = part.page_count
    for oid in oids:
        part.free(oid)
    dropped = part.drop_empty_pages()
    assert dropped == pages_before
    assert part.page_count == 0


def test_stats_and_fragmentation():
    part = Partition(1, page_size=256)
    oids = [part.allocate(b"x" * 60) for _ in range(8)]
    packed = part.stats()
    for oid in oids[::2]:
        part.free(oid)
    holey = part.stats()
    assert holey.live_objects == 4
    assert holey.fragmentation > packed.fragmentation


def test_page_lsn_tracking():
    part = Partition(1, page_size=256)
    oid = part.allocate(b"x")
    assert part.page_lsn(oid.page) == 0
    part.set_page_lsn(oid.page, 42)
    assert part.page_lsn(oid.page) == 42
    assert part.page_lsn(999) == 0  # unknown pages report zero


def test_snapshot_restore_roundtrip():
    part = Partition(1, page_size=256)
    oids = [part.allocate(bytes([i]) * 20) for i in range(6)]
    part.free(oids[1])
    part.mark_relocation_floor()
    clone = Partition.restore(part.snapshot())
    assert list(clone.live_oids()) == list(part.live_oids())
    for oid in part.live_oids():
        assert clone.read(oid) == part.read(oid)
    assert clone.relocation_floor == part.relocation_floor
    # Restored free-space map must still allocate correctly.
    extra = clone.allocate(b"fresh")
    assert clone.read(extra) == b"fresh"


def test_write_and_read_bytes_through_partition():
    part = Partition(1, page_size=256)
    oid = part.allocate(b"abcdefgh")
    part.write_bytes(oid, 4, b"WXYZ")
    assert part.read_bytes(oid, 4, 4) == b"WXYZ"


class TestFreeSpaceMap:
    def test_find_first_fit_by_page_number(self):
        fsm = FreeSpaceMap()
        fsm.register_page(3, 100)
        fsm.register_page(1, 100)
        fsm.register_page(2, 10)
        assert fsm.find_page(50) == 1
        assert fsm.find_page(50, min_page=2) == 3
        assert fsm.find_page(500) is None

    def test_update_and_total(self):
        fsm = FreeSpaceMap()
        fsm.register_page(0, 100)
        fsm.update(0, 40)
        assert fsm.free_space(0) == 40
        assert fsm.total_free() == 40

    def test_update_unknown_page_raises(self):
        with pytest.raises(KeyError):
            FreeSpaceMap().update(9, 10)

    def test_forget_page(self):
        fsm = FreeSpaceMap()
        fsm.register_page(0, 100)
        fsm.forget_page(0)
        assert 0 not in fsm
        assert fsm.find_page(1) is None
