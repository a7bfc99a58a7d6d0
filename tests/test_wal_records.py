"""Unit + property tests for log-record serialization."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import LogCorruptionError, Oid
from repro.wal import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    ClrRecord,
    CommitRecord,
    EndRecord,
    FLAG_SYSTEM_TXN,
    LogRecord,
    ObjCreateRecord,
    ObjDeleteRecord,
    PayloadUpdateRecord,
    RefUpdateRecord,
    ReorgProgressRecord,
    TpcDecisionRecord,
    TpcEndRecord,
    TpcPrepareRecord,
    decode_record,
)
from repro.wal import records
from repro.wal.records import (
    NULLABLE_OID,
    U64,
    Layout,
    ListOf,
    MergeInstallRecord,
    TailDeltaRecord,
)

oids = st.builds(Oid,
                 st.integers(min_value=0, max_value=100),
                 st.integers(min_value=0, max_value=1000),
                 st.integers(min_value=0, max_value=100))
maybe_oids = st.one_of(st.none(), oids)
tids = st.integers(min_value=0, max_value=2**32)
lsns = st.integers(min_value=0, max_value=2**40)
payloads = st.binary(max_size=200)
u8s = st.integers(min_value=0, max_value=2**8 - 1)
u16s = st.integers(min_value=0, max_value=2**16 - 1)
u64s = st.integers(min_value=0, max_value=2**64 - 1)
gids = st.text(max_size=24)
short = dict(max_size=6)

#: One record of every kind with non-trivial field values, and the bytes
#: it encodes to.  The WAL is the recovery contract: these bytes may
#: never change.
_INNER = RefUpdateRecord(25, 0, parent=Oid(1, 2, 3), slot=1,
                         old_child=Oid(5, 5, 5), new_child=None)
GOLDEN = {
    "begin": (
        BeginRecord(0x0102030405, 77, flags=FLAG_SYSTEM_TXN,
                    reorg_partition=3),
        "0105040302010000004d00000000000000010300"),
    "commit": (CommitRecord(11, 0x1234),
               "020b000000000000003412000000000000"),
    "abort": (AbortRecord(13, 14), "030d000000000000000e00000000000000"),
    "end": (EndRecord(15, 16), "040f000000000000001000000000000000"),
    "obj_create": (
        ObjCreateRecord(21, 20, oid=Oid(2, 0x10203, 7), image=b"\x00img\xff"),
        "0515000000000000001400000000000000070003020100020005000000"
        "00696d67ff"),
    "obj_delete": (
        ObjDeleteRecord(22, 21, oid=Oid(1, 5, 6), before_image=b"old"),
        "0616000000000000001500000000000000060005000000010003000000"
        "6f6c64"),
    "payload_update": (
        PayloadUpdateRecord(23, 22, oid=Oid(3, 4, 5), offset=17,
                            before=b"ab", after=b"xyz"),
        "0717000000000000001600000000000000050004000000030011000000"
        "02000000616203000000" "78797a"),
    "ref_update": (
        RefUpdateRecord(24, 23, parent=Oid(1, 2, 3), slot=9,
                        old_child=None, new_child=Oid(2, 3, 4)),
        "08180000000000000017000000000000000300020000000100"
        "0900ffffffffffffffff0400030000000200"),
    "clr": (
        ClrRecord(25, 24, undo_next_lsn=8, undone_lsn=23,
                  action=_INNER.encode()),
        "091900000000000000180000000000000008000000000000001700000000"
        "0000002b0000000819000000000000000000000000000000030002000000"
        "010001000500050000000500ffffffffffffffff"),
    "checkpoint": (
        CheckpointRecord(0, 0, snapshot_id=3,
                         active_txns=((4, 100), (7, 200))),
        "0a0000000000000000000000000000000003000000000000000200000004"
        "0000000000000064000000000000000700000000000000c800000000000000"),
    "reorg_progress": (
        ReorgProgressRecord(0, 41, partition_id=2, algorithm="ira-2lock",
                            state=b"\x01\x02\x03"),
        "0b000000000000000029000000000000000200090000006972612d326c6f63"
        "6b03000000010203"),
    "tpc_prepare": (
        TpcPrepareRecord(9, 40, gid="n0/t9/m3", coordinator=2),
        "0c09000000000000002800000000000000080000006e302f74392f6d33"
        "0200"),
    "tpc_decision": (
        TpcDecisionRecord(4, 10, gid="g1", commit=True),
        "0d04000000000000000a0000000000000002000000673101"),
    "tpc_end": (
        TpcEndRecord(4, 11, gid="g1"),
        "0e04000000000000000b00000000000000020000006731"),
    "tail_delta": (
        TailDeltaRecord(0, 0, commit_ts=55,
                        writes=((Oid(1, 2, 3), b"v1"), (Oid(1, 2, 4), b""))),
        "0f0000000000000000000000000000000037000000000000000200000003"
        "00020000000100020000007631040002000000010000000000"),
    "merge_install": (
        MergeInstallRecord(0, 0, owner_tid=31, partition_id=1, merge_ts=56,
                           flips=((Oid(1, 2, 3), Oid(1, 9, 0)),),
                           frees=(Oid(1, 2, 3), Oid(1, 2, 4))),
        "10000000000000000000000000000000001f00000000000000010038000000"
        "00000000010000000300020000000100000009000000010002000000"
        "03000200000001000400020000000100"),
}

#: One strategy per record kind; every field ranges over its whole
#: encodable domain.
RECORDS = {
    BeginRecord: st.builds(BeginRecord, u64s, u64s, flags=u8s,
                           reorg_partition=u16s),
    CommitRecord: st.builds(CommitRecord, u64s, u64s),
    AbortRecord: st.builds(AbortRecord, u64s, u64s),
    EndRecord: st.builds(EndRecord, u64s, u64s),
    ObjCreateRecord: st.builds(ObjCreateRecord, u64s, u64s, oid=maybe_oids,
                               image=payloads),
    ObjDeleteRecord: st.builds(ObjDeleteRecord, u64s, u64s, oid=maybe_oids,
                               before_image=payloads),
    PayloadUpdateRecord: st.builds(
        PayloadUpdateRecord, u64s, u64s, oid=maybe_oids,
        offset=st.integers(min_value=0, max_value=2**32 - 1),
        before=payloads, after=payloads),
    RefUpdateRecord: st.builds(RefUpdateRecord, u64s, u64s,
                               parent=maybe_oids, slot=u16s,
                               old_child=maybe_oids, new_child=maybe_oids),
    ClrRecord: st.builds(ClrRecord, u64s, u64s, undo_next_lsn=u64s,
                         undone_lsn=u64s, action=payloads),
    CheckpointRecord: st.builds(
        CheckpointRecord, u64s, u64s, snapshot_id=u64s,
        active_txns=st.lists(st.tuples(u64s, u64s), **short).map(tuple)),
    ReorgProgressRecord: st.builds(ReorgProgressRecord, u64s, u64s,
                                   partition_id=u16s, algorithm=gids,
                                   state=payloads),
    TpcPrepareRecord: st.builds(TpcPrepareRecord, u64s, u64s, gid=gids,
                                coordinator=u16s),
    TpcDecisionRecord: st.builds(TpcDecisionRecord, u64s, u64s, gid=gids,
                                 commit=st.booleans()),
    TpcEndRecord: st.builds(TpcEndRecord, u64s, u64s, gid=gids),
    TailDeltaRecord: st.builds(
        TailDeltaRecord, u64s, u64s, commit_ts=u64s,
        writes=st.lists(st.tuples(maybe_oids, payloads),
                        **short).map(tuple)),
    MergeInstallRecord: st.builds(
        MergeInstallRecord, u64s, u64s, owner_tid=u64s, partition_id=u16s,
        merge_ts=u64s,
        flips=st.lists(st.tuples(maybe_oids, maybe_oids), **short).map(tuple),
        frees=st.lists(maybe_oids, **short).map(tuple)),
}
any_record = st.one_of(*RECORDS.values())


def roundtrip(record):
    return decode_record(record.encode(), lsn=9)


def test_golden_and_strategies_cover_every_kind():
    kinds = set(LogRecord.__subclasses__())
    assert {type(record) for record, _ in GOLDEN.values()} == kinds
    assert set(RECORDS) == kinds
    assert sorted(bytes.fromhex(hexed)[0] for _, hexed in GOLDEN.values()) \
        == list(range(1, 17))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name):
    record, hexed = GOLDEN[name]
    encoded = bytes.fromhex(hexed)
    assert record.encode() == encoded
    decoded = decode_record(encoded, lsn=5)
    assert type(decoded) is type(record)
    assert decoded == record and decoded.lsn == 5


def test_every_encoding_keeps_its_kind_at_the_declared_byte():
    """``decode_record`` picks the kind off ``KIND_BYTE``; the log's
    header reader (``LogManager.headers``) reads kind and tid through
    ``KIND_TID`` without decoding."""
    from repro.wal.records import HEADER, KIND_BYTE, KIND_TID
    assert [name for name, _ in HEADER[:2]] == ["kind", "tid"]
    assert KIND_BYTE == 0
    for record, hexed in GOLDEN.values():
        encoded = bytes.fromhex(hexed)
        assert encoded[KIND_BYTE] == record.kind
        assert KIND_TID.unpack_from(encoded) == (record.kind, record.tid)


def test_importing_compiles_no_layout():
    """Layouts compile at first use: ``import repro`` (timed by the
    benchmark's ``setup_s``) compiles none."""
    script = ("import repro.wal.records as r, repro.core.checkpointing as c\n"
              "shapes = [k.shape for k in r._BY_KIND.values()]\n"
              "shapes += [c._BASE, c._DELTA]\n"
              "print(sum('take' in vars(s) for s in shapes), len(shapes))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "18"]


def test_each_layout_compiles_under_a_file_name_of_its_own():
    # A profile keys a function by (file, line, name): with one file name
    # every layout's put would be counted as one function.
    begin, commit = BeginRecord.shape, CommitRecord.shape
    begin.put(BeginRecord(1, 0))
    commit.put(CommitRecord(1, 0))
    names = {begin.put.__code__.co_filename, commit.put.__code__.co_filename}
    assert len(names) == 2
    assert "<string>" not in names


def test_a_layout_decoded_before_it_is_encoded_compiles_on_take():
    encoder, decoder = Layout(U64, U64), Layout(U64, U64)
    data = encoder.put((1, 2))
    assert "take" not in vars(decoder)
    assert decoder.take(data, 0) == ((1, 2), 16)
    assert decoder.put((1, 2)) == data


def test_a_nested_layout_compiles_once_for_a_whole_list(monkeypatch):
    # ``ListOf`` binds its item's ``put``/``take`` once per call, before
    # the item layout has compiled; each item must not compile it again.
    compiles, compile_ = [], records._compile

    def counting(layout):
        compiles.append(layout)
        return compile_(layout)
    monkeypatch.setattr(records, "_compile", counting)
    pairs = ListOf(Layout(NULLABLE_OID, NULLABLE_OID))
    value = tuple((Oid(1, n, 0), None) for n in range(300))
    data = pairs.put(value)
    assert pairs.take(data, 0) == (value, len(data))
    assert len(compiles) == 1


@pytest.mark.parametrize("kind", sorted(RECORDS, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_kind_roundtrips(kind, data):
    record = data.draw(RECORDS[kind])
    decoded = roundtrip(record)
    assert type(decoded) is kind
    assert decoded == record
    assert decoded.encode() == record.encode()


def test_begin_roundtrip_and_flags():
    rec = roundtrip(BeginRecord(5, 0, flags=FLAG_SYSTEM_TXN))
    assert isinstance(rec, BeginRecord)
    assert rec.tid == 5
    assert rec.is_system
    assert not roundtrip(BeginRecord(5, 0)).is_system
    assert rec.lsn == 9


def test_control_records_roundtrip():
    for cls in (CommitRecord, AbortRecord, EndRecord):
        rec = roundtrip(cls(7, 123))
        assert isinstance(rec, cls)
        assert (rec.tid, rec.prev_lsn) == (7, 123)


def test_obj_create_roundtrip():
    rec = roundtrip(ObjCreateRecord(1, 2, oid=Oid(3, 4, 5), image=b"bytes"))
    assert rec.oid == Oid(3, 4, 5)
    assert rec.image == b"bytes"


def test_obj_delete_roundtrip():
    rec = roundtrip(ObjDeleteRecord(1, 2, oid=Oid(3, 4, 5),
                                    before_image=b"old"))
    assert rec.before_image == b"old"


def test_payload_update_roundtrip():
    rec = roundtrip(PayloadUpdateRecord(1, 2, oid=Oid(1, 1, 1), offset=17,
                                        before=b"aa", after=b"bb"))
    assert (rec.offset, rec.before, rec.after) == (17, b"aa", b"bb")


def test_ref_update_roundtrip_all_null_combinations():
    for old, new in ((None, Oid(1, 1, 1)), (Oid(1, 1, 1), None),
                     (Oid(1, 1, 1), Oid(2, 2, 2))):
        rec = roundtrip(RefUpdateRecord(1, 2, parent=Oid(9, 9, 9), slot=3,
                                        old_child=old, new_child=new))
        assert (rec.old_child, rec.new_child, rec.slot) == (old, new, 3)


def test_clr_roundtrip_with_nested_action():
    inner = RefUpdateRecord(4, 0, parent=Oid(1, 2, 3), slot=1,
                            old_child=Oid(5, 5, 5), new_child=None)
    rec = roundtrip(ClrRecord(4, 10, undo_next_lsn=8, undone_lsn=9,
                              action=inner.encode()))
    assert rec.undo_next_lsn == 8
    assert rec.undone_lsn == 9
    nested = rec.decode_action()
    assert isinstance(nested, RefUpdateRecord)
    assert nested.old_child == Oid(5, 5, 5)


def test_checkpoint_roundtrip():
    rec = roundtrip(CheckpointRecord(0, 0, snapshot_id=3,
                                     active_txns=((4, 100), (7, 200))))
    assert rec.snapshot_id == 3
    assert rec.active_txn_table() == {4: 100, 7: 200}


def test_unknown_kind_rejected():
    with pytest.raises(LogCorruptionError):
        decode_record(b"\xee" + b"\x00" * 16)


@settings(max_examples=150, deadline=None)
@given(tids, lsns, oids, payloads)
def test_obj_create_roundtrip_property(tid, prev, oid, image):
    rec = roundtrip(ObjCreateRecord(tid, prev, oid=oid, image=image))
    assert (rec.tid, rec.prev_lsn, rec.oid, rec.image) == \
        (tid, prev, oid, image)


@settings(max_examples=150, deadline=None)
@given(tids, lsns, oids, st.integers(min_value=0, max_value=65535),
       maybe_oids, maybe_oids)
def test_ref_update_roundtrip_property(tid, prev, parent, slot, old, new):
    rec = roundtrip(RefUpdateRecord(tid, prev, parent=parent, slot=slot,
                                    old_child=old, new_child=new))
    assert (rec.parent, rec.slot, rec.old_child, rec.new_child) == \
        (parent, slot, old, new)


@settings(max_examples=150, deadline=None)
@given(tids, lsns, oids, st.integers(min_value=0, max_value=2**31),
       payloads, payloads)
def test_payload_update_roundtrip_property(tid, prev, oid, offset,
                                           before, after):
    rec = roundtrip(PayloadUpdateRecord(tid, prev, oid=oid, offset=offset,
                                        before=before, after=after))
    assert (rec.oid, rec.offset, rec.before, rec.after) == \
        (oid, offset, before, after)


def test_tpc_records_roundtrip():
    from repro.wal import TpcDecisionRecord, TpcEndRecord, TpcPrepareRecord
    prep = roundtrip(TpcPrepareRecord(9, 40, gid="n0/t9/m3", coordinator=2))
    assert isinstance(prep, TpcPrepareRecord)
    assert (prep.gid, prep.coordinator, prep.tid, prep.prev_lsn) == \
        ("n0/t9/m3", 2, 9, 40)
    yes = roundtrip(TpcDecisionRecord(4, 10, gid="g", commit=True))
    no = roundtrip(TpcDecisionRecord(4, 10, gid="g", commit=False))
    assert yes.commit and not no.commit
    end = roundtrip(TpcEndRecord(4, 11, gid="g"))
    assert end.gid == "g"


# -- strict decoding: whatever decodes re-encodes to its own bytes ---------------


def test_trailing_bytes_and_non_bool_flags_are_rejected():
    with pytest.raises(LogCorruptionError):
        decode_record(CommitRecord(1, 2).encode() + b"junk")
    encoded = bytearray(TpcDecisionRecord(4, 10, gid="g", commit=True).encode())
    encoded[-1] = 0x07
    with pytest.raises(LogCorruptionError):
        decode_record(bytes(encoded))


def _decodes_to_itself_or_raises(data):
    try:
        record = decode_record(data)
    except LogCorruptionError:
        return
    assert record.encode() == data


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80))
def test_arbitrary_bytes_decode_to_themselves_or_raise(data):
    _decodes_to_itself_or_raises(data)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.binary(max_size=80))
def test_bytes_behind_a_known_kind_decode_to_themselves_or_raise(kind, rest):
    _decodes_to_itself_or_raises(bytes([kind]) + rest)


@settings(max_examples=400, deadline=None)
@given(any_record, st.data())
def test_single_byte_mutations_decode_to_themselves_or_raise(record, data):
    """COMMIT, ABORT and END share one layout, so a swapped kind byte can
    still be a valid record: the achievable rule is the re-encoding."""
    encoded = bytearray(record.encode())
    index = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    encoded[index] = data.draw(u8s)
    _decodes_to_itself_or_raises(bytes(encoded))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_strict_prefix_raises(name):
    encoded = bytes.fromhex(GOLDEN[name][1])
    for cut in range(len(encoded)):
        with pytest.raises(LogCorruptionError):
            decode_record(encoded[:cut])
