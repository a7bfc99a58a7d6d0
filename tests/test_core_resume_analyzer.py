"""§4.4 resume rebuilds the TRT through the live log analyzer.

Two corruptions a hand-copied replay of the analyzer's rules let through,
each only when the run is crashed and resumed: a CLR whose inner action
recreates a deleted parent was not analyzed (the parent's references were
never re-noted), and ``created_since_activation`` was never rebuilt (a
collecting run freed an object its creator was still about to link).
The same scenarios run uncrashed as controls.

Timeline of the 61–62-object partition below (ms after launch): discovery
is over by +35, migration 20 — the first checkpoint, made durable by the
next commit — lands near +240, the last one near +680.
"""

import pytest

from repro import CompactionPlan, Database, ReorgConfig
from repro.core import WalReorgStateStore, resume_reorganization
from repro.sim import Delay
from repro.storage import ObjectImage
from tests.conftest import OnReorg

FILLERS = 60
CRASH_AFTER_MS = 340.0


def launch(db, config, user):
    """Spawn the reorganizer now and ``user(db)`` 0.05 ms later."""
    reorg = db.reorganizer(1, "ira", plan=CompactionPlan(),
                           reorg_config=config,
                           state_store=WalReorgStateStore(db.engine, 1))
    reorg_proc = db.sim.spawn(reorg.run(), name="reorganizer")

    def delayed_user():
        yield Delay(0.05)
        yield from user(db)
    db.sim.spawn(delayed_user(), name="user")
    return reorg_proc


def crash_and_resume(db, config, user):
    """Crash at +340 ms, recover, resume; returns the recovered database
    and the ready-to-run resumed reorganizer."""
    crash_at = db.sim.now + CRASH_AFTER_MS
    reorg_proc = launch(db, config, user)
    db.sim.run(until=crash_at)
    assert not reorg_proc.done.fired, "the crash must land mid-reorganization"
    db = Database.recover(db.crash())
    assert db.verify_integrity().ok, "recovery itself left the graph broken"
    resumed = resume_reorganization(
        db.engine, WalReorgStateStore(db.engine, 1), plan=CompactionPlan(),
        reorg_config=config)
    assert resumed is not None, "no durable progress record to resume from"
    return db, resumed


def tuples(trt):
    return {(e.child, e.parent, e.action)
            for oid in trt.referenced_objects()
            for e in trt.entries_for(oid)}


# -- (a) an aborted delete of a not-yet-traversed parent ----------------------

def deleted_parent_db():
    """Partition 1: ``parent`` allocated first (the traversal's LIFO stack
    reaches it last), fillers, ``child`` allocated last (address order
    migrates it last); ``parent -> child``."""
    db = Database()
    db.create_partition(1)
    parent = db.create_object(1, 1, payload=b"parent")
    for i in range(FILLERS):
        db.create_object(1, 0, payload=b"filler-%02d" % i)
    child = db.create_object(1, 0, payload=b"child")

    def link(txn):
        txn.local_refs.add(child)
        yield from txn.insert_ref(parent, child)
    db.execute(link)
    db.checkpoint()

    def user(db):
        # Deletes the parent before the fuzzy traversal reaches it, then
        # aborts after the last durable checkpoint: the CLR recreating
        # the parent is the only trace of the edge.
        txn = db.begin()
        yield from txn.read(parent)
        yield from txn.delete_object(parent)
        yield Delay(300.0)
        yield from txn.abort()
    return db, parent, child, user


def test_aborted_parent_delete_is_renoted_by_the_resumed_run():
    db, parent, child, user = deleted_parent_db()
    db, resumed = crash_and_resume(db, ReorgConfig(checkpoint_every=20), user)
    assert (child, parent, "I") in tuples(resumed.trt), \
        "the CLR that recreated the parent was not analyzed"
    db.run(resumed.run(), name="resumed")
    report = db.verify_integrity()
    assert report.ok, report.problems()


def test_aborted_parent_delete_uncrashed_control():
    db, _, _, user = deleted_parent_db()
    launch(db, ReorgConfig(checkpoint_every=20), user)
    db.sim.run()
    assert db.verify_integrity().ok


# -- (b) an object created after activation, linked late ----------------------

def late_creation_db():
    """Partition 1: objects each referenced from a partition-2 root;
    partition 2 also holds a ``hub`` with a free slot."""
    db = Database()
    db.create_partition(1)
    db.create_partition(2)
    for i in range(FILLERS):
        oid = db.create_object(1, 0, payload=b"leaf-%02d" % i)
        db.create_object(2, 1, payload=b"root-%02d" % i, refs=[oid])
    hub = db.create_object(2, 1, payload=b"hub")
    db.checkpoint()
    created = []

    def user(db):
        # Creates N after TRT activation, links it only much later.
        txn = db.begin()
        yield from txn.read(hub)
        oid = yield from txn.create_object(
            1, ObjectImage.new(0, payload=b"late-arrival"))
        created.append(oid)
        yield Delay(300.0)
        yield from txn.insert_ref(hub, oid)
        yield from txn.commit()
    return db, created, user


COLLECTING = ReorgConfig(checkpoint_every=20, collect_garbage=True)


def test_late_creation_survives_a_resumed_collecting_run():
    db, created, user = late_creation_db()
    db, resumed = crash_and_resume(db, COLLECTING, user)
    assert created[0] in resumed.trt.created_since_activation
    stats = db.run(resumed.run(), name="resumed")
    assert stats.garbage_collected == 0
    report = db.verify_integrity()
    assert report.ok, report.problems()


def test_late_creation_uncrashed_control():
    db, _, user = late_creation_db()
    reorg_proc = launch(db, COLLECTING, user)
    db.sim.run()
    assert reorg_proc.result.garbage_collected == 0
    assert db.verify_integrity().ok


# -- (c) the order a replayed TRT is drained in -------------------------------

def test_resumed_run_locks_trt_parents_in_the_specified_order():
    """A replayed table numbers its tuples differently from the live one
    and iterates however its hash buckets fall; the parent locked first
    is nevertheless ``min`` over ``(parent, tid, action)``."""
    db = Database()
    db.create_partition(1)
    fillers = [db.create_object(1, 1, payload=b"filler-%02d" % i)
               for i in range(FILLERS)]
    child = db.create_object(1, 0, payload=b"child")
    db.checkpoint()
    parents = [fillers[i] for i in (50, 40, 55, 45)]   # not address order

    def user(db):
        # After discovery, before the first checkpoint: only the TRT
        # knows these parents.
        yield Delay(60.0)
        for parent in parents:
            txn = db.begin()
            yield from txn.read(parent)
            txn.local_refs.add(child)
            yield from txn.insert_ref(parent, child)
            yield from txn.commit()
    db, resumed = crash_and_resume(db, ReorgConfig(checkpoint_every=20), user)
    assert tuples(resumed.trt) == {(child, p, "I") for p in parents}

    events = []
    db.engine.subscribe(OnReorg(lambda event, info: events.append(
        (event, info))))
    db.run(resumed.run(), name="resumed")
    last_move = max(i for i, (event, info) in enumerate(events)
                    if event == "migrated" and info["oid"] != child)
    locked = [info["target"] for event, info in events[last_move:]
              if event == "lock" and info["target"] != child]
    assert locked == [resumed.stats.mapping[p] for p in sorted(parents)]
    assert db.verify_integrity().ok
