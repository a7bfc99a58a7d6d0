"""Unit tests for the log manager: LSNs, flushing, group commit, and the
crash surface (the durable stream and the manager rebuilt from it)."""

import tracemalloc

import pytest

from repro.sim import Delay, Resource, Simulator
from repro.wal import (
    BeginRecord,
    CommitRecord,
    LogManager,
    frame_record,
    scan_frames,
)


@pytest.fixture
def setup():
    sim = Simulator()
    disk = Resource(sim, capacity=1, name="log-disk")
    log = LogManager(sim, disk, flush_time_ms=8.0)
    return sim, disk, log


def test_lsns_are_dense_from_one(setup):
    _, _, log = setup
    assert log.append(BeginRecord(1, 0)) == 1
    assert log.append(CommitRecord(1, 1)) == 2
    assert log.last_lsn == 2


def test_read_and_records_iteration(setup):
    _, _, log = setup
    log.append(BeginRecord(1, 0))
    log.append(BeginRecord(2, 0))
    log.append(CommitRecord(1, 1))
    assert log.read(2).tid == 2
    tids = [rec.tid for rec in log.records(from_lsn=2)]
    assert tids == [2, 1]
    assert [r.lsn for r in log.records()] == [1, 2, 3]


def test_read_out_of_range(setup):
    _, _, log = setup
    with pytest.raises(IndexError):
        log.read(1)
    log.append(BeginRecord(1, 0))
    with pytest.raises(IndexError):
        log.read(2)


def test_flush_advances_durable_horizon(setup):
    sim, _, log = setup
    log.append(BeginRecord(1, 0))
    assert log.flushed_lsn == 0

    def proc():
        yield from log.flush()

    sim.run_process(proc())
    assert log.flushed_lsn == 1
    assert sim.now == 8.0


def test_flush_noop_when_already_durable(setup):
    sim, _, log = setup
    lsn = log.append(BeginRecord(1, 0))
    log.flush_now()

    def proc():
        yield from log.flush(lsn)
        return sim.now

    assert sim.run_process(proc()) == 0.0
    assert log.flush_count == 0


def test_group_commit_piggybacks(setup):
    sim, _, log = setup
    finish = {}

    def committer(tag):
        lsn = log.append(CommitRecord(tag, 0))
        yield from log.flush(lsn)
        finish[tag] = sim.now

    # Three committers racing: the first grabs the disk and fixes its
    # write's content at that instant, so the two that append while the
    # I/O is in flight cannot ride it — they share a single *second*
    # flush (group commit among the waiters).
    for tag in (1, 2, 3):
        sim.spawn(committer(tag))
    sim.run()
    assert finish == {1: 8.0, 2: 16.0, 3: 16.0}
    assert log.flush_count == 2


def test_flush_does_not_cover_records_appended_mid_write(setup):
    # Regression: the durable horizon must stop at the append point
    # captured when the disk write began.  A record appended while the
    # I/O was in flight is physically not in that write; reporting it
    # durable would let a crash lose a "committed" transaction.
    sim, _, log = setup
    log.append(CommitRecord(1, 0))

    def flusher():
        yield from log.flush()

    def late_appender():
        yield Delay(4.0)  # mid-flight: the flush runs over [0, 8.0)
        log.append(CommitRecord(2, 0))

    sim.spawn(flusher())
    sim.spawn(late_appender())
    sim.run()
    assert log.last_lsn == 2
    assert log.flushed_lsn == 1
    payloads, _, problem = scan_frames(log.durable_bytes())
    assert problem is None
    assert len(payloads) == 1


def test_later_appends_need_second_flush(setup):
    sim, _, log = setup
    times = {}

    def first():
        lsn = log.append(CommitRecord(1, 0))
        yield from log.flush(lsn)
        times[1] = sim.now

    def second():
        yield Delay(10.0)  # append after the first flush finished
        lsn = log.append(CommitRecord(2, 0))
        yield from log.flush(lsn)
        times[2] = sim.now

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert times == {1: 8.0, 2: 18.0}
    assert log.flush_count == 2


def test_subscribers_called_synchronously_in_order(setup):
    _, _, log = setup
    seen = []
    log.subscribe(lambda rec: seen.append((rec.tid, rec.lsn)))
    log.append(BeginRecord(1, 0))
    log.append(CommitRecord(1, 1))
    assert seen == [(1, 1), (1, 2)]
    log.unsubscribe(log._subscribers[0])
    log.append(BeginRecord(2, 0))
    assert len(seen) == 2


def test_durable_bytes_exclude_unflushed_tail(setup):
    sim, disk, log = setup
    log.append(BeginRecord(1, 0))
    log.flush_now()
    log.append(BeginRecord(2, 0))  # unflushed
    durable = log.durable_bytes()
    payloads, _, problem = scan_frames(durable)
    assert problem is None
    assert len(payloads) == 1
    rebuilt = LogManager.from_durable(sim, disk, 8.0, durable)
    assert rebuilt.last_lsn == 1
    assert rebuilt.flushed_lsn == 1
    assert not rebuilt.tail_truncated
    assert rebuilt.read(1).tid == 1


def test_records_decode_from_bytes_not_memory(setup):
    _, _, log = setup
    record = BeginRecord(1, 0)
    log.append(record)
    decoded = log.read(1)
    assert decoded is not record  # recovery must not share live objects
    assert decoded.tid == record.tid


def _reference_stream(log):
    """The durable stream as the per-record frames it is defined by."""
    return b"".join(map(frame_record, log._encoded[:log.flushed_lsn]))


@pytest.mark.parametrize("appended, flushed", [(0, 0), (1, 1), (5, 3)],
                         ids=["empty", "one-record", "unflushed-tail"])
def test_durable_bytes_are_the_flushed_frames(setup, appended, flushed):
    sim, disk, log = setup
    for tid in range(1, flushed + 1):
        log.append(BeginRecord(tid, 0))
    log.flush_now()
    for tid in range(flushed + 1, appended + 1):
        log.append(CommitRecord(tid, 0))
    assert log.flushed_lsn == flushed
    durable = log.durable_bytes()
    assert durable == _reference_stream(log)
    payloads, consumed, problem = scan_frames(durable)
    assert (consumed, problem) == (len(durable), None)
    assert payloads == log._encoded[:flushed]
    rebuilt = LogManager.from_durable(sim, disk, 8.0, durable)
    assert (rebuilt.last_lsn, rebuilt.flushed_lsn) == (flushed, flushed)
    assert [rec.encode() for rec in rebuilt.records()] == payloads
    assert rebuilt.durable_bytes() == durable


def test_durable_bytes_hold_the_stream_once(setup):
    # The stream is built in one buffer: no framed copy of each record,
    # no joined copy of those.  Per-record frames peak near 7x the
    # stream; one growing buffer handed back uncopied peaks near 1x.
    _, _, log = setup
    for tid in range(1, 20_001):
        log.append(CommitRecord(tid, tid - 1))
    log.flush_now()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        durable = log.durable_bytes()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert durable == _reference_stream(log)
    assert peak <= 1.25 * len(durable) + 64 * 1024, (peak, len(durable))


_TWO_RECORDS = (frame_record(BeginRecord(1, 0).encode())
                + frame_record(CommitRecord(1, 1).encode()))
_COMMIT = CommitRecord(2, 0).encode()


@pytest.mark.parametrize("tail, problem", [
    (b"", None),
    (frame_record(_COMMIT)[:-3], "frame of 17B overruns the stream (14B left)"),
    (frame_record(b"\xee" + _COMMIT[1:]) + frame_record(_COMMIT),
     "undecodable record at lsn 3: no known log record kind in b'\\xee'"),
], ids=["clean", "torn-last-frame", "crc-ok-undecodable"])
def test_from_durable_keeps_the_good_prefix(setup, tail, problem):
    sim, disk, _ = setup
    rebuilt = LogManager.from_durable(sim, disk, 8.0, _TWO_RECORDS + tail)
    assert rebuilt.last_lsn == 2
    assert rebuilt.flushed_lsn == 2
    assert rebuilt.tail_truncated is (problem is not None)
    assert rebuilt.tail_problem == problem
    assert [(type(rec), rec.tid) for rec in rebuilt.records()] == [
        (BeginRecord, 1), (CommitRecord, 1)]
    assert rebuilt.durable_bytes() == _TWO_RECORDS
