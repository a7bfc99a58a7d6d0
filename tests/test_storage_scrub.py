"""The background checksum scrubber and the buffer pool's read
verification — the two paths that catch live-memory corruption *before*
it reaches a checkpoint or a user transaction."""

import pytest

from repro import Database, StorageEngine, SystemConfig, WorkloadConfig
from repro.sim import Delay
from repro.storage.errors import PageChecksumError
from repro.storage.page import snapshot_checksum_ok
from repro.storage.scrub import Scrubber
from tests.conftest import committed, make_object


def fresh_engine(**config):
    eng = StorageEngine(SystemConfig(**config))
    eng.create_partition(1)
    eng.create_partition(2)
    return eng


def populate(eng, partition_id, count=4):
    oids = []
    for i in range(count):
        def body(txn, i=i):
            oid = yield from txn.create_object(
                partition_id, make_object(payload=b"%04d" % i))
            return oid
        oids.append(committed(eng, body))
    return oids


def flip_bit(eng, pid, page_no, bit=3):
    """Corrupt a live page behind the page API (checksum stays stale)."""
    page = eng.store.partition(pid).page(page_no)
    page._buf[bit // 8] ^= 1 << (bit % 8)
    return (pid, page_no)


def test_scrubber_clean_store_finds_nothing():
    eng = fresh_engine()
    populate(eng, 1)
    scrubber = Scrubber(eng, interval_ms=10.0, pages_per_sweep=4)
    eng.sim.spawn(scrubber.run(), name="scrubber")
    eng.sim.run(until=100.0)
    scrubber.stop()
    assert scrubber.stats.pages_scanned > 0
    assert scrubber.stats.sweeps_completed >= 1
    assert scrubber.stats.clean


def test_scrubber_detects_live_bit_flip_under_traffic():
    eng = fresh_engine()
    writable = populate(eng, 1)
    populate(eng, 2)

    found = []
    scrubber = Scrubber(eng, interval_ms=10.0, pages_per_sweep=2,
                        on_corrupt=lambda pid, page, why:
                        found.append((pid, page)))
    eng.sim.spawn(scrubber.run(), name="scrubber")

    def writer():
        # Concurrent legitimate traffic on partition 1 only; the flip
        # lands in partition 2, which nothing rewrites (a write through
        # the page API recomputes the page checksum and would launder
        # the damage — that window is exactly why the scrubber exists).
        for round_no in range(20):
            txn = eng.txns.begin()
            yield from txn.read(writable[round_no % len(writable)])
            yield from txn.write_payload(writable[round_no % len(writable)],
                                         0, b"%04d" % round_no)
            yield from txn.commit()
            yield Delay(7.0)
    eng.sim.spawn(writer(), name="writer")

    def saboteur():
        yield Delay(35.0)
        flip_bit(eng, 2, 0)
    eng.sim.spawn(saboteur(), name="saboteur")

    eng.sim.run(until=300.0)
    scrubber.stop()
    assert (2, 0) in found
    assert not scrubber.stats.clean
    assert any(pid == 2 and page == 0
               for pid, page, _ in scrubber.stats.findings)


def test_scrubber_survives_vanishing_pages():
    eng = fresh_engine()
    oids = populate(eng, 1)
    scrubber = Scrubber(eng, interval_ms=5.0, pages_per_sweep=8)
    eng.sim.spawn(scrubber.run(), name="scrubber")

    def deleter():
        yield Delay(12.0)
        for oid in oids:
            txn = eng.txns.begin()
            yield from txn.read(oid)
            yield from txn.delete_object(oid)
            yield from txn.commit()
    eng.sim.spawn(deleter(), name="deleter")
    eng.sim.run(until=100.0)
    assert scrubber.stats.clean


# -- corruption cannot launder through a checkpoint ---------------------------


def test_live_corruption_not_laundered_into_checkpoint():
    """A checkpoint taken over a rotted page must carry the *stale*
    maintained checksum, so restore rejects the image instead of
    blessing the damage with a freshly computed CRC."""
    eng = fresh_engine()
    populate(eng, 1)
    flip_bit(eng, 1, 0)
    eng.take_checkpoint()
    latest = eng.snapshots.latest()
    state = eng.snapshots.load(latest)["store"]["partitions"][1]["pages"][0]
    assert not snapshot_checksum_ok(state)


# -- buffer-pool read verification --------------------------------------------


def test_buffer_read_verifies_checksum():
    eng = fresh_engine(disk_resident=True, buffer_pool_pages=8)
    oids = populate(eng, 1)
    assert eng.buffer is not None and eng.buffer.verify_hook is not None

    def reader():
        txn = eng.txns.begin()
        image = yield from txn.read(oids[0])
        yield from txn.commit()
        return image
    eng.sim.run_process(reader(), name="reader")
    assert eng.buffer.stats.reads_verified > 0

    flip_bit(eng, 1, 0)
    eng.buffer.discard((1, 0))  # force the next access to re-read (and verify)

    def reader_hits_corruption():
        txn = eng.txns.begin()
        yield from txn.read(oids[0])
    with pytest.raises(PageChecksumError):
        eng.sim.run_process(reader_hits_corruption(), name="reader2")


def test_read_verification_can_be_disabled():
    eng = fresh_engine(disk_resident=True, buffer_pool_pages=8,
                       verify_page_reads=False)
    assert eng.buffer is not None
    assert eng.buffer.verify_hook is None
