"""Tests for the engine wiring: checkpoints, integrity sweep, crash."""

import pytest

from repro import StorageEngine, SystemConfig
from repro.storage import Oid
from repro.wal import scan_frames
from tests.conftest import committed, make_object


@pytest.fixture
def engine():
    eng = StorageEngine(SystemConfig())
    eng.create_partition(1)
    eng.create_partition(2)
    return eng


def populate(engine):
    def body(txn):
        child = yield from txn.create_object(2, make_object(payload=b"c"))
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        return parent, child
    return committed(engine, body)


def test_verify_integrity_clean(engine):
    populate(engine)
    report = engine.verify_integrity()
    assert report.ok
    assert report.problems() == []


def test_verify_integrity_detects_dangling_ref(engine):
    parent, child = populate(engine)
    engine.store.free_object(child)          # bypass the txn layer
    report = engine.verify_integrity()
    assert not report.ok
    assert any("dangling" in p for p in report.problems())


def test_verify_integrity_detects_missing_ert_entry(engine):
    parent, child = populate(engine)
    engine.ert_for(2).remove(child, parent)  # corrupt the table
    report = engine.verify_integrity()
    assert not report.ok
    assert report.ert_missing == [(2, child, parent)]


def test_verify_integrity_detects_spurious_ert_entry(engine):
    populate(engine)
    engine.ert_for(1).add(Oid(1, 9, 9), Oid(2, 9, 9))
    report = engine.verify_integrity()
    assert not report.ok
    assert report.ert_spurious == [(1, Oid(1, 9, 9), Oid(2, 9, 9))]


def test_checkpoint_names_a_snapshot(engine):
    populate(engine)
    lsn = engine.take_checkpoint()
    assert lsn == engine.log.last_lsn
    assert engine.log.flushed_lsn >= lsn
    assert len(engine.snapshots) == 1


def test_crash_image_contains_only_durable_state(engine):
    parent, child = populate(engine)
    engine.take_checkpoint()
    image = engine.crash()
    payloads, _, problem = scan_frames(image.durable_log)
    assert problem is None
    assert len(payloads) == engine.log.flushed_lsn
    recovered = StorageEngine.recover(image)
    assert recovered.store.exists(parent)
    assert recovered.verify_integrity().ok


def test_crash_kills_all_processes(engine):
    def stuck():
        txn = engine.txns.begin()
        yield from txn.create_object(1, make_object())
        yield from txn.commit()
    proc = engine.sim.spawn(stuck())
    engine.crash()
    assert not proc.alive


def test_recovered_engine_supports_new_transactions(engine):
    populate(engine)
    recovered = StorageEngine.recover(engine.crash())

    def body(txn):
        oid = yield from txn.create_object(1, make_object(payload=b"new"))
        return oid
    oid = committed(recovered, body)
    assert recovered.store.read_object(oid).payload == b"new"
    assert recovered.verify_integrity().ok


def test_ert_created_on_demand(engine):
    ert = engine.ert_for(5)
    assert ert.partition_id == 5
    assert engine.ert_for(5) is ert


@pytest.mark.parametrize("locks", ["flat", "hier"])
@pytest.mark.parametrize("disk_resident", [False, True])
def test_fresh_and_recovered_engines_have_the_same_shape(disk_resident,
                                                         locks):
    """One assembly path: a field added for fresh engines only (or for
    recovered ones only) must not pass CI."""
    config = SystemConfig(disk_resident=disk_resident, lock_manager=locks)
    fresh = StorageEngine(config)
    fresh.create_partition(1)
    fresh.create_partition(2)
    populate(fresh)
    fresh.take_checkpoint()
    recovered = StorageEngine.recover(fresh.crash())

    blank = vars(StorageEngine(config))
    assert vars(recovered).keys() == blank.keys()
    # ``recovery_stats`` is the one slot a restart fills by design.
    assert blank.pop("recovery_stats") is None
    assert recovered.recovery_stats is not None
    for name, value in blank.items():
        assert type(vars(recovered)[name]) is type(value), name
