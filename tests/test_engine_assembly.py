"""A recovered engine *is* the database (paper §2, §4.4).

``StorageEngine.recover`` goes through the same assembly as a fresh
engine, so everything a fresh engine can do a recovered one can too:
run user transactions (the hot-path CPU-charge fields exist), and fail
loudly — never report durable — when its transient-I/O retry budget
runs out, after exactly the configured number of retries.
"""

import pytest

from repro import Database, StorageEngine, SystemConfig, WorkloadConfig
from repro.config import RetryPolicy
from repro.storage import TransientIOError
from tests.conftest import committed, make_object, run

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)

#: {memory, disk-resident} × {flat, hierarchical} — a pool much smaller
#: than the database, so the disk-resident arms really miss.
MATRIX = [
    pytest.param(dict(disk_resident=resident, buffer_pool_pages=8,
                      lock_manager=locks),
                 id=f"{'disk' if resident else 'mem'}-{locks}")
    for resident in (False, True) for locks in ("flat", "hier")]


@pytest.mark.parametrize("system", MATRIX)
def test_user_transaction_after_recovery(system):
    db, layout = Database.with_workload(WORKLOAD,
                                        system=SystemConfig(**system))
    recovered = Database.recover(db.crash())
    parent = layout.cluster_roots[1][0]

    def body(txn):
        children = yield from txn.read_refs(parent)
        image = yield from txn.read(parent)
        slots = list(image.refs())
        assert tuple(child for _, child in slots) == children
        assert len(children) >= 2
        yield from txn.write_payload(parent, 0, b"after-restart")
        slot = slots[0][0]
        yield from txn.update_ref(parent, slot, children[1])
        return slot, children[1]

    slot, child = recovered.execute(body)
    image = recovered.store.read_object(parent)
    assert image.payload.startswith(b"after-restart")
    assert dict(image.refs())[slot] == child
    assert recovered.engine.txns.committed == 1
    assert recovered.verify_integrity().ok


def _populated(config):
    engine = StorageEngine(config)
    engine.create_partition(1)
    oid = committed(engine, lambda txn: txn.create_object(
        1, make_object(payload=b"p")))
    return engine, oid


def _fresh_and_recovered(config):
    fresh, oid = _populated(config)
    crashed, _ = _populated(config)
    return [("fresh", fresh, oid),
            ("recovered", StorageEngine.recover(crashed.crash()), oid)]


def _always_fail(*_args):
    raise TransientIOError("injected")


def test_exhausted_flush_budget_is_never_reported_durable():
    outcomes = {}
    for label, engine, _oid in _fresh_and_recovered(SystemConfig(
            io_retry=RetryPolicy.exponential(5.0, max_retries=1))):
        engine.log.fault_hook = _always_fail
        flushed, flushes = engine.log.flushed_lsn, engine.log.flush_count
        with pytest.raises(TransientIOError):
            committed(engine, lambda txn: txn.create_object(
                1, make_object(payload=b"q")))
        assert engine.log.flushed_lsn == flushed, label
        assert engine.log.flush_count == flushes, label
        outcomes[label] = (engine.log.io_faults, engine.log.io_retries)
    # One retry allowed: the write and its retry both fault, then raise.
    assert outcomes == {"fresh": (2, 1), "recovered": (2, 1)}


@pytest.mark.parametrize("limit", [0, 2, 6])
def test_pool_read_fault_exhausts_after_exactly_limit_retries(limit):
    config = SystemConfig(
        disk_resident=True,
        io_retry=RetryPolicy.exponential(5.0, max_retries=limit))
    for label, engine, oid in _fresh_and_recovered(config):
        engine.buffer.discard((oid.partition, oid.page))
        engine.buffer.fault_hook = _always_fail

        def reader():
            txn = engine.txns.begin()
            yield from txn.read(oid)

        with pytest.raises(TransientIOError):
            run(engine, reader())
        stats = engine.buffer.stats
        assert (stats.io_faults, stats.io_retries) == (limit + 1, limit), \
            label
        assert not engine.buffer.resident((oid.partition, oid.page)), label
