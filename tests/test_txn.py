"""Unit tests for transactions: locking, WAL ordering, rollback, the
reference protocol, strict-2PL vs short-lock semantics."""

import pytest

from repro import (
    LockMode,
    LockTimeoutError,
    ReferenceProtocolError,
    StorageEngine,
    SystemConfig,
    TransactionStateError,
)
from repro.sim import Delay
from repro.txn import TxnStatus
from repro.wal.records import RefUpdateRecord
from tests.conftest import committed, make_object, run


def test_create_read_commit(engine):
    def body(txn):
        oid = yield from txn.create_object(1, make_object(payload=b"v"))
        image = yield from txn.read(oid)
        return oid, image.payload
    oid, payload = committed(engine, body)
    assert payload == b"v"
    assert engine.store.exists(oid)


def test_locks_released_at_commit(engine):
    def body(txn):
        oid = yield from txn.create_object(1, make_object())
        yield from txn.read(oid)
        assert engine.locks.lock_count(txn.tid) >= 1
        return txn
    txn = committed(engine, body)
    assert engine.locks.lock_count(txn.tid) == 0
    assert txn.status is TxnStatus.COMMITTED


def test_strict_2pl_read_lock_held_until_commit(engine):
    def setup(txn):
        oid = yield from txn.create_object(1, make_object())
        return oid
    oid = committed(engine, setup)

    def reader():
        txn = engine.txns.begin()
        yield from txn.read(oid)
        assert engine.locks.holds(txn.tid, oid, LockMode.S)
        yield Delay(50)
        yield from txn.commit()

    run(engine, reader())


@pytest.fixture
def relaxed_engine():
    """Short-duration read locks (§4.1) are an engine-wide setting: it is
    what makes IRA wait for early releasers and the lock manager keep
    the history that wait reads."""
    eng = StorageEngine(SystemConfig(strict_transactions=False))
    eng.create_partition(1)
    return eng


def test_short_lock_mode_releases_s_immediately(relaxed_engine):
    engine = relaxed_engine

    def setup(txn):
        oid = yield from txn.create_object(1, make_object())
        return oid
    oid = committed(engine, setup)

    def reader():
        txn = engine.txns.begin()
        yield from txn.read(oid)
        assert not engine.locks.holds(txn.tid, oid)
        # §4.1: the lock manager still remembers this locker.
        assert txn.tid in engine.locks.ever_lockers(oid)
        yield from txn.commit()
        assert engine.locks.ever_lockers(oid) == set()

    run(engine, reader())


def test_short_lock_mode_keeps_x_locks(relaxed_engine):
    engine = relaxed_engine

    def setup(txn):
        oid = yield from txn.create_object(
            1, make_object(payload=b"12345678"))
        return oid
    oid = committed(engine, setup)

    def writer():
        txn = engine.txns.begin()
        yield from txn.read(oid, for_update=True)
        yield from txn.write_payload(oid, 0, b"X")
        assert engine.locks.holds(txn.tid, oid, LockMode.X)
        yield from txn.commit()

    run(engine, writer())


def test_abort_undoes_everything(engine):
    def setup(txn):
        oid = yield from txn.create_object(
            1, make_object(payload=b"original"))
        return oid
    oid = committed(engine, setup)

    def doomed():
        txn = engine.txns.begin()
        created = yield from txn.create_object(1, make_object())
        yield from txn.read(oid, for_update=True)
        yield from txn.write_payload(oid, 0, b"CLOBBER!")
        yield from txn.abort()
        return created
    created = run(engine, doomed())

    assert engine.store.get_payload(oid) == b"original"
    assert not engine.store.exists(created)


def test_abort_restores_deleted_object_and_refs(engine):
    def setup(txn):
        child = yield from txn.create_object(2, make_object(payload=b"c"))
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        return parent, child
    parent, child = committed(engine, setup)

    def doomed():
        txn = engine.txns.begin()
        yield from txn.read(parent)
        yield from txn.delete_ref(parent, child)
        yield from txn.delete_object(child)
        yield from txn.abort()
    run(engine, doomed())

    assert engine.store.exists(child)
    assert engine.store.read_object(parent).children() == [child]
    assert engine.verify_integrity().ok


def test_insert_and_delete_ref(engine):
    def body(txn):
        child = yield from txn.create_object(2, make_object())
        parent = yield from txn.create_object(1, make_object())
        slot = yield from txn.insert_ref(parent, child)
        assert engine.store.get_ref(parent, slot) == child
        yield from txn.delete_ref(parent, child)
        assert engine.store.get_ref(parent, slot) is None
        return parent
    committed(engine, body)


def test_insert_ref_into_occupied_slot_rejected(engine):
    def body(txn):
        child = yield from txn.create_object(2, make_object())
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        with pytest.raises(ReferenceProtocolError):
            yield from txn.insert_ref(parent, child, slot=0)
        yield from txn.abort()
    run(engine, body(None) if False else _wrap(engine, body))


def _wrap(engine, body):
    def gen():
        txn = engine.txns.begin()
        yield from body(txn)
    return gen()


def test_delete_missing_ref_rejected(engine):
    def body(txn):
        a = yield from txn.create_object(1, make_object())
        b = yield from txn.create_object(1, make_object())
        with pytest.raises(ReferenceProtocolError):
            yield from txn.delete_ref(a, b)
        yield from txn.abort()
    run(engine, _wrap(engine, body))


def test_reference_protocol_enforced(engine):
    """A transaction may not use a reference it never legitimately got."""
    def setup(txn):
        hidden = yield from txn.create_object(2, make_object())
        holder = yield from txn.create_object(1, make_object())
        return hidden, holder
    hidden, holder = committed(engine, setup)

    def cheater():
        txn = engine.txns.begin()
        yield from txn.read(holder)
        with pytest.raises(ReferenceProtocolError):
            # txn never read a parent of `hidden`.
            yield from txn.insert_ref(holder, hidden)
        yield from txn.abort()
    run(engine, cheater())


def test_reference_protocol_allows_read_sourced_refs(engine):
    def setup(txn):
        child = yield from txn.create_object(2, make_object())
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        other = yield from txn.create_object(1, make_object())
        return parent, child, other
    parent, child, other = committed(engine, setup)

    def legit():
        txn = engine.txns.begin()
        yield from txn.read(parent)     # copies child's ref to local memory
        yield from txn.insert_ref(other, child)
        yield from txn.commit()
    run(engine, legit())
    assert engine.store.read_object(other).children() == [child]


def test_wal_order_undo_before_update(engine):
    """The REF_UPDATE record must be appended before the slot changes."""
    order = []
    original_append = engine.log.append

    def spying_append(record):
        if isinstance(record, RefUpdateRecord):
            order.append(("log", engine.store.get_ref(record.parent,
                                                      record.slot)))
        return original_append(record)
    engine.log.append = spying_append

    def body(txn):
        child = yield from txn.create_object(2, make_object())
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        yield from txn.delete_ref(parent, child)
        return child
    child = committed(engine, body)
    # At append time the reference was still physically present.
    assert order[-1] == ("log", child)


def test_commit_flushes_log(engine):
    def body(txn):
        yield from txn.create_object(1, make_object())
        return txn
    txn = committed(engine, body)
    # Everything up to and including the COMMIT record is durable; only
    # the END marker (appended at finish) may trail unflushed.
    commit_lsn = next(r.lsn for r in engine.log.records()
                      if r.kind == 2 and r.tid == txn.tid)
    assert engine.log.flushed_lsn >= commit_lsn
    assert engine.log.flush_count >= 1


def test_operations_on_finished_txn_rejected(engine):
    def body():
        txn = engine.txns.begin()
        yield from txn.commit()
        with pytest.raises(TransactionStateError):
            yield from txn.create_object(1, make_object())
        with pytest.raises(TransactionStateError):
            yield from txn.commit()
    run(engine, body())


def test_lock_conflict_timeout_between_writers(engine):
    def setup(txn):
        oid = yield from txn.create_object(
            1, make_object(payload=b"12345678"))
        return oid
    oid = committed(engine, setup)
    outcome = []

    def slow_writer():
        txn = engine.txns.begin()
        yield from txn.read(oid, for_update=True)
        yield Delay(5000)
        yield from txn.commit()

    def victim():
        yield Delay(1)
        txn = engine.txns.begin()
        try:
            yield from txn.read(oid, for_update=True)
        except LockTimeoutError:
            outcome.append("timeout")
            yield from txn.abort()

    engine.sim.spawn(slow_writer())
    engine.sim.spawn(victim())
    engine.sim.run()
    assert outcome == ["timeout"]


def test_local_refs_track_read_children(engine):
    def setup(txn):
        child = yield from txn.create_object(2, make_object())
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        return parent, child
    parent, child = committed(engine, setup)

    def reader():
        txn = engine.txns.begin()
        yield from txn.read(parent)
        assert child in txn.local_refs
        assert parent in txn.local_refs
        yield from txn.commit()
    run(engine, reader())


def test_update_ref_records_old_child_in_local_memory(engine):
    """Fig. 2 model: after cutting a ref the txn still 'remembers' it."""
    def setup(txn):
        child = yield from txn.create_object(2, make_object())
        parent = yield from txn.create_object(1, make_object(refs=[child]))
        return parent, child
    parent, child = committed(engine, setup)

    def cutter():
        txn = engine.txns.begin()
        yield from txn.read(parent)
        yield from txn.update_ref(parent, 0, None)
        assert child in txn.local_refs
        yield from txn.commit()
    run(engine, cutter())


# -- create into a slot whose deleter is still active ---------------------------
#
# The allocator reuses a freed slot at once, but its deleter holds X on
# the address until it ends and its rollback puts the old bytes back.
# A creator must never wait for that lock with its own, still unlogged,
# bytes sitting in the slot.

def _committed_a(engine):
    def setup(txn):
        oid = yield from txn.create_object(1, make_object(payload=b"a-bytes"))
        return oid
    return committed(engine, setup)


def _deleter_and_creator(engine, deleter_ends, after_ms):
    """t1 deletes ``a`` and ends (``deleter_ends(txn)``) ``after_ms``
    later; t2 creates into the same partition at 100 ms, once the delete
    has happened.  Returns ``a`` and what t2 saw: ``(created, whether it
    holds a lock on a)`` before committing, or — if it timed out waiting
    — ``("timeout", whether anything sits at a)`` before aborting."""
    a = _committed_a(engine)
    seen = []

    def deleter():
        txn = engine.txns.begin()
        yield from txn.read(a)
        yield from txn.delete_object(a)
        yield Delay(after_ms)
        yield from deleter_ends(txn)

    def creator():
        yield Delay(100)
        txn = engine.txns.begin()
        try:
            created = yield from txn.create_object(
                1, make_object(payload=b"b-bytes"))
        except LockTimeoutError:
            seen.append(("timeout", engine.store.exists(a)))
            yield from txn.abort()
        else:
            seen.append((created, engine.locks.holds(txn.tid, a)))
            yield from txn.commit()

    engine.sim.spawn(deleter())
    engine.sim.spawn(creator())
    engine.sim.run()
    return a, seen


def _aborts(txn):
    yield from txn.abort()


def _commits(txn):
    yield from txn.commit()


def test_create_blocked_on_active_deleter_leaves_no_bytes_behind(engine):
    """The creator times out waiting and aborts; the deleter then aborts
    too.  At the parent of the fix the deleter's rollback raised
    ``StorageError: slot 0 already occupied``."""
    a, seen = _deleter_and_creator(engine, _aborts, after_ms=5000)
    # Nothing placed, nothing logged: the slot is the deleter's.
    assert seen == [("timeout", False)]
    assert engine.store.get_payload(a) == b"a-bytes"
    assert list(engine.store.live_oids(1)) == [a]
    assert engine.verify_integrity().ok


def test_create_queued_behind_deleter_that_aborts_lands_elsewhere(engine):
    """The deleter rolls back *while* the creator is still queued."""
    a, ((created, holds_a),) = _deleter_and_creator(engine, _aborts,
                                                     after_ms=300)
    assert created != a
    # The lock it queued for guards the deleter's restored object, not
    # anything the creator touched: it is given back, not kept to commit.
    assert not holds_a
    assert engine.store.get_payload(a) == b"a-bytes"
    assert engine.store.get_payload(created) == b"b-bytes"
    assert engine.verify_integrity().ok


def test_create_queued_behind_deleter_that_commits_reuses_the_slot(engine):
    a, ((created, holds_a),) = _deleter_and_creator(engine, _commits,
                                                     after_ms=300)
    assert created == a and holds_a
    assert engine.store.get_payload(a) == b"b-bytes"
    assert engine.verify_integrity().ok


def test_create_reuses_own_freed_slot_without_waiting(engine):
    """An IRA batch reuses its own just-deleted source slot."""
    a = _committed_a(engine)

    def body(txn):
        yield from txn.read(a)
        yield from txn.delete_object(a)
        again = yield from txn.create_object(
            1, make_object(payload=b"b-bytes"))
        return again
    assert committed(engine, body) == a
    assert engine.locks.stats.waits == 0
    assert engine.store.get_payload(a) == b"b-bytes"
