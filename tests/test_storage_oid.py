"""Unit tests for physical OIDs."""

import pytest

from repro.storage import NULL_REF, Oid
from repro.storage.oid import MAX_PAGE, MAX_PARTITION, MAX_SLOT


def test_pack_unpack_roundtrip():
    oid = Oid(3, 17, 42)
    unpacked = Oid.unpack(oid.pack())
    assert unpacked == oid and type(unpacked) is Oid
    assert (unpacked.partition, unpacked.page, unpacked.slot) == (3, 17, 42)


def test_pack_unpack_extremes():
    for oid in (Oid(0, 0, 0),
                Oid(MAX_PARTITION, MAX_PAGE, MAX_SLOT - 1),
                Oid(0, MAX_PAGE, 0),
                Oid(MAX_PARTITION, 0, MAX_SLOT - 1)):
        assert Oid.unpack(oid.pack()) == oid


def test_null_ref_is_not_a_valid_oid():
    with pytest.raises(ValueError, match="NULL_REF"):
        Oid.unpack(NULL_REF)


def test_max_everything_packs_to_null():
    # The all-ones address is reserved as NULL; the packer of the true
    # maximum slot collides with it by design.
    oid = Oid(MAX_PARTITION, MAX_PAGE, MAX_SLOT)
    assert oid.pack() == NULL_REF


def test_oids_are_hashable_and_ordered():
    a, b = Oid(1, 2, 3), Oid(1, 2, 4)
    assert a < b
    assert len({a, b, Oid(1, 2, 3)}) == 2


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError):
        Oid(-1, 0, 0).validate()
    with pytest.raises(ValueError):
        Oid(0, MAX_PAGE + 1, 0).validate()
    with pytest.raises(ValueError):
        Oid(0, 0, MAX_SLOT + 1).validate()
    assert Oid(1, 2, 3).validate() == Oid(1, 2, 3)


def test_unpack_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Oid.unpack(1 << 64)
    with pytest.raises(ValueError, match="out of range"):
        Oid.unpack(-1)


def test_str_and_repr():
    oid = Oid(1, 2, 3)
    assert str(oid) == "1:2:3"
    assert "1:2:3" in repr(oid)


def test_distinct_addresses_pack_distinctly():
    packed = {Oid(p, g, s).pack()
              for p in range(3) for g in range(5) for s in range(7)}
    assert len(packed) == 3 * 5 * 7
