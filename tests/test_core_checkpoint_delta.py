"""Incremental §4.4 checkpoints: base + delta chains fold back into the
full reorganizer state."""

import random
from types import SimpleNamespace

import pytest

from repro import (
    CompactionPlan,
    Database,
    ExperimentConfig,
    ReorgConfig,
    WorkloadConfig,
)
from repro.concurrency import LockMode, LockTimeoutError
from repro.core import (
    IncrementalReorganizer,
    ReorgState,
    ReorgStateStore,
    TwoLockReorganizer,
    WalReorgStateStore,
    decode_reorg_state,
    encode_reorg_state,
    resume_reorganization,
)
from repro.core.checkpointing import ReorgDelta, decode_reorg_delta
from repro.errors import ReorganizationError
from repro.faults.chaos import count_remigrations
from repro.storage import LogCorruptionError
from repro.storage.oid import Oid
from repro.sim import Resource, Simulator
from repro.verify import graph_signature
from repro.wal import (BeginRecord, CommitRecord, LogManager,
                       ReorgProgressRecord, scan_frames)
from repro.wal.records import KIND_REORG_PROGRESS, decode_record
from repro.workload import WorkloadDriver
from repro.workload.metrics import ExperimentMetrics

PARTITION = 1


class _RetryAfterTrtParent:
    """Mixin: abort the first attempt that persisted a TRT-discovered
    parent, as a deadlock would — the parent list keeps the discovery
    while everything transactional rolls back."""

    forced = 0

    def _abort_once_if_grew(self, tid, oid, before):
        if not self.forced and len(self._parents.get(oid, ())) > before:
            self.forced += 1
            raise LockTimeoutError(tid, oid, LockMode.X)


class _RetryingIra(_RetryAfterTrtParent, IncrementalReorganizer):
    def _find_exact_parents(self, txn, oid, batch_mapping, keep_locked):
        before = len(self._parents.get(oid, ()))
        exact = yield from super()._find_exact_parents(
            txn, oid, batch_mapping, keep_locked)
        self._abort_once_if_grew(txn.tid, oid, before)
        return exact


class _RetryingTwoLock(_RetryAfterTrtParent, TwoLockReorganizer):
    def _patch_parents_one_at_a_time(self, anchor, oid, new_oid):
        before = len(self._parents.get(oid, ()))
        yield from super()._patch_parents_one_at_a_time(anchor, oid, new_oid)
        self._abort_once_if_grew(anchor.tid, oid, before)


def _make_store(kind, engine):
    return (WalReorgStateStore(engine, PARTITION) if kind == "wal"
            else ReorgStateStore())


def _launch(reorg_cls, store_kind, checkpoint_every, objects=170, mpl=4,
            seed=13, ref_update_prob=0.5):
    """Database + reorganizer + MPL threads.  Every checkpoint is
    recorded as ``(lsn after the save, full snapshot taken at that
    instant, what was saved)`` and the store must load back the snapshot."""
    wl = WorkloadConfig(num_partitions=2, objects_per_partition=objects,
                        mpl=mpl, seed=seed, ref_update_prob=ref_update_prob)
    db, layout = Database.with_workload(wl)
    store = _make_store(store_kind, db.engine)
    reorg = reorg_cls(db.engine, PARTITION, plan=CompactionPlan(),
                      reorg_config=ReorgConfig(
                          checkpoint_every=checkpoint_every),
                      state_store=store)
    snapshots = []
    real_save = store.save

    def checked_save(state):
        expected = reorg.snapshot_state(state.in_progress)
        real_save(state)
        snapshots.append((db.engine.log.last_lsn, expected, state))
        assert store.load() == expected

    store.save = checked_save
    driver = WorkloadDriver(db.engine, layout, ExperimentConfig(workload=wl))
    metrics = ExperimentMetrics("x", wl.mpl)
    proc = db.sim.spawn(reorg.run(), name="reorg")
    for i in range(wl.mpl):
        db.sim.spawn(driver._thread_process(i, metrics), name=f"t{i}")
    return db, reorg, store, proc, snapshots


def _run_to_end(db, proc):
    while not proc.done.fired:
        db.sim.run(until=db.sim.now + 1000.0)
    db.sim.kill_all()
    return proc.result


# -- (a) equivalence ---------------------------------------------------------------


@pytest.mark.parametrize("store_kind", ["memory", "wal"])
@pytest.mark.parametrize("reorg_cls,checkpoint_every", [
    (_RetryingIra, 1), (_RetryingIra, 8),
    (_RetryingTwoLock, 8),
])
def test_every_checkpoint_loads_back_as_the_full_state(
        reorg_cls, checkpoint_every, store_kind):
    db, reorg, store, proc, snapshots = _launch(
        reorg_cls, store_kind, checkpoint_every)
    stats = _run_to_end(db, proc)

    # The forced retry happened, after a TRT-discovered parent persisted.
    assert reorg.forced == 1 and stats.deadlock_retries >= 1
    assert stats.objects_migrated == 170
    assert stats.checkpoints_taken == store.saves == len(snapshots)
    kinds = [type(state) for _, _, state in snapshots]
    assert kinds[0] is ReorgState
    assert set(kinds[1:]) == {ReorgDelta}
    # Deltas carried parent-list replacements, not just mapping pairs.
    assert any(state.parents for _, _, state in snapshots[1:])
    if reorg_cls is _RetryingTwoLock:
        assert any(state.in_progress for _, _, state in snapshots)
        assert len(snapshots) >= 170    # one per migration, plus periodic
    assert store.load() is None         # tombstoned on completion
    assert db.verify_integrity().ok


def test_delta_codec_round_trip():
    a, b, c = Oid(1, 2, 3), Oid(1, 2, 4), Oid(1, 5, 0)
    delta = ReorgDelta(parents={a: {b, c}, b: set()},
                       mapping={a: Oid(1, 9, 1)}, log_lsn=77,
                       in_progress=(b, Oid(1, 9, 2)), relocation_floor=4)
    assert decode_reorg_delta(encode_reorg_state(delta)) == delta
    # One wire format: a base is the plan header followed by a delta
    # from nothing.
    base = ReorgState(algorithm="ira", partition_id=1, order=[a, b, c],
                      migrated={a}, allocated_at_traversal={a, b, c},
                      **vars(delta))
    encoded = encode_reorg_state(base)
    assert encoded.endswith(encode_reorg_state(delta))
    assert decode_reorg_state(encoded) == base


#: A base and two deltas (one mid two-lock migration) with the bytes they
#: encode to: sets and maps go on the wire sorted, so the bytes are a
#: function of the state alone.
_A, _B, _C, _D = Oid(1, 2, 3), Oid(1, 2, 4), Oid(1, 5, 0), Oid(1, 9, 1)
GOLDEN_STATES = {
    "base": (
        ReorgState(algorithm="ira-2lock", partition_id=1, order=[_C, _A, _B],
                   parents={_A: {_C, _B}, _C: set()}, mapping={_A: _D},
                   migrated={_A}, allocated_at_traversal={_B, _A, _C},
                   log_lsn=77, in_progress=None, relocation_floor=4,
                   trt_lsn=12),
        "096972612d326c6f636b010000000c0000000000000003000000000005000000"
        "0100030002000000010004000200000001000300000003000200000001000400"
        "0200000001000000050000000100010000000300020000000100020000000300"
        "0200000001000200000004000200000001000000050000000100000005000000"
        "0100000000000100000003000200000001000100090000000100"
        "4d000000000000000004000000"),
    "delta_in_progress": (
        ReorgDelta(parents={_B: {_D, _C}},
                   mapping={_B: Oid(1, 9, 2), _C: Oid(1, 9, 3)}, log_lsn=90,
                   in_progress=(_B, Oid(1, 9, 2)), relocation_floor=5),
        "0100000004000200000001000200000000000500000001000100090000000100"
        "0200000004000200000001000200090000000100000005000000010003000900"
        "000001005a00000000000000010400020000000100020009000000010005000000"),
    "delta": (
        ReorgDelta(parents={}, mapping={}, log_lsn=91, in_progress=None,
                   relocation_floor=5),
        "00000000000000005b000000000000000005000000"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
def test_golden_state_bytes(name):
    state, hexed = GOLDEN_STATES[name]
    encoded = bytes.fromhex(hexed)
    assert encode_reorg_state(state) == encoded
    decode = (decode_reorg_state if isinstance(state, ReorgState)
              else decode_reorg_delta)
    assert decode(encoded) == state


def _state_decoder(state):
    return (decode_reorg_state if isinstance(state, ReorgState)
            else decode_reorg_delta)


@pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
def test_malformed_state_bytes_raise_log_corruption(name):
    state, hexed = GOLDEN_STATES[name]
    encoded = bytes.fromhex(hexed)
    decode = _state_decoder(state)
    for cut in range(len(encoded)):
        with pytest.raises(LogCorruptionError):
            decode(encoded[:cut])
    with pytest.raises(LogCorruptionError):
        decode(encoded + b"\x00")


@pytest.mark.parametrize("name,at", [
    # The base's first ``order`` OID follows the u8-prefixed algorithm
    # name, partition u32, trt_lsn u64 and the list's u32 count.
    ("base", 1 + len("ira-2lock") + 4 + 8 + 4),
    # A delta's first parents child follows the u32 count.
    ("delta_in_progress", 4),
])
def test_a_null_oid_in_state_bytes_raises_log_corruption(name, at):
    state, hexed = GOLDEN_STATES[name]
    encoded = bytes.fromhex(hexed)
    with pytest.raises(LogCorruptionError):
        _state_decoder(state)(encoded[:at] + b"\xff" * 8 + encoded[at + 8:])


# -- (b) torn tail -----------------------------------------------------------------


def _progress_frames(durable):
    """(byte offset, frame length, record) of each REORG_PROGRESS frame."""
    payloads, _, problem = scan_frames(durable)
    assert problem is None
    offset, frames = 0, []
    for index, payload in enumerate(payloads):
        record = decode_record(payload, lsn=index + 1)
        if isinstance(record, ReorgProgressRecord):
            frames.append((offset, 8 + len(payload), record))
        offset += 8 + len(payload)
    return frames


def test_torn_last_progress_frame_resumes_from_the_previous_record():
    db, reorg, store, proc, snapshots = _launch(
        IncrementalReorganizer, "wal", checkpoint_every=8, objects=340)
    db.sim.run(until=5000.0)
    image = db.crash()
    frames = _progress_frames(image.durable_log)
    assert len(frames) >= 3
    offset, length, torn = frames[-1]
    assert torn.prev_lsn == frames[-2][2].lsn    # a delta, chained
    image.durable_log = image.durable_log[:offset + length // 2]

    recovered = Database.recover(image)
    engine = recovered.engine
    assert engine.log.tail_truncated
    assert recovered.verify_integrity().ok
    expected = {lsn: state for lsn, state, _ in snapshots}[
        frames[-2][2].lsn]
    wal_store = WalReorgStateStore(engine, PARTITION)
    assert wal_store.load() == expected

    reference = graph_signature(engine)
    resume_lsn = engine.log.last_lsn
    resumed = resume_reorganization(engine, wal_store,
                                    plan=CompactionPlan(),
                                    reorg_config=reorg.cfg)
    premigrated_new = {resumed._mapping[old] for old in resumed._migrated}
    stats = recovered.run(resumed.run(), name="resumed")
    assert recovered.verify_integrity().ok
    assert graph_signature(engine) == reference
    assert count_remigrations(engine, PARTITION, resume_lsn,
                              premigrated_new) == 0
    assert len(premigrated_new) + stats.objects_migrated == 340

    # (c) the resumed incarnation starts its own chain with a base.
    progress = [r for r in engine.log.records(from_lsn=resume_lsn + 1)
                if isinstance(r, ReorgProgressRecord)]
    assert progress[0].prev_lsn == 0 and not progress[0].is_tombstone
    assert decode_reorg_state(progress[0].state).partition_id == PARTITION
    for previous, record in zip(progress, progress[1:-1]):
        assert record.prev_lsn == previous.lsn
    assert progress[-1].is_tombstone and wal_store.completed()


# -- (c) incarnations --------------------------------------------------------------


def _base(lsn, **fields):
    fields.setdefault("order", [])
    return ReorgState(algorithm="ira", partition_id=PARTITION, parents={},
                      mapping={}, migrated=set(),
                      allocated_at_traversal=set(), log_lsn=lsn, **fields)


@pytest.mark.parametrize("store_kind", ["memory", "wal"])
def test_load_never_folds_across_a_base_or_a_tombstone(store_kind):
    db, _ = Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=85, mpl=1))
    a, b, c = Oid(1, 2, 3), Oid(1, 2, 4), Oid(1, 5, 0)
    first = _make_store(store_kind, db.engine)
    first.save(_base(1, order=[a, b]))
    first.save(ReorgDelta(parents={b: {a}}, mapping={a: c}, log_lsn=2))
    assert first.load().mapping == {a: c}

    # A takeover: a new incarnation (for the WAL store, a new store over
    # the same log) writes its own base; the predecessor's chain is dead.
    second = (_make_store(store_kind, db.engine) if store_kind == "wal"
              else first)
    second.save(_base(3, order=[b]))
    second.save(ReorgDelta(parents={}, mapping={b: a}, log_lsn=4))
    state = second.load()
    assert (state.order, state.mapping, state.migrated, state.parents,
            state.log_lsn) == ([b], {b: a}, {b}, {}, 4)

    second.clear()
    assert second.load() is None
    with pytest.raises(ReorganizationError):    # no base to follow
        second.save(ReorgDelta(parents={}, mapping={}, log_lsn=5))
    assert second.load() is None
    second.save(_base(6))
    assert second.load() == _base(6)


def test_wal_store_files_records_under_its_own_partition():
    db, _ = Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=85, mpl=1))
    store = WalReorgStateStore(db.engine, PARTITION)
    state = _base(1)
    state.partition_id = 2      # a caller's mistake must not hide the record
    store.save(state)
    assert store.latest_record().partition_id == PARTITION
    assert store.load() is not None
    assert WalReorgStateStore(db.engine, 2).load() is None


def _latest_by_full_decode(log, partition_id):
    """The reference search: decode every record, newest first."""
    for lsn in range(log.last_lsn, 0, -1):
        record = log.read(lsn)
        if isinstance(record, ReorgProgressRecord) and \
                record.partition_id == partition_id:
            return record
    return None


@pytest.mark.parametrize("tear_seed", [1, 2, 3, 4])
def test_latest_record_matches_a_full_decode_search(tear_seed):
    sim = Simulator()
    log = LogManager(sim, Resource(sim, name="log-disk"), 8.0)
    engine = SimpleNamespace(log=log)
    a, b, c = Oid(1, 2, 3), Oid(1, 2, 4), Oid(1, 5, 0)
    tids = iter(range(1, 100))

    def user_txn():
        tid = next(tids)
        log.append(BeginRecord(tid, 0))
        log.append(CommitRecord(tid, log.last_lsn))

    # Partitions 1-3 checkpoint interleaved with user work, partition 2
    # finishes (its tombstone), partition 4 never writes a record.
    stores = {pid: WalReorgStateStore(engine, pid) for pid in (1, 2, 3, 4)}
    for pid in (1, 2, 3):
        user_txn()
        stores[pid].save(_base(log.last_lsn, order=[a, b]))
    for pid in (3, 1, 2, 1):
        user_txn()
        stores[pid].save(ReorgDelta(parents={b: {a}}, mapping={a: c},
                                    log_lsn=log.last_lsn))
    stores[2].clear()
    user_txn()
    log.flush_now()
    # The crash tears partition 1's newest record off the durable log.
    stores[1].save(ReorgDelta(parents={}, mapping={b: c},
                              log_lsn=log.last_lsn))
    user_txn()
    rebuilt = LogManager.from_durable(
        sim, Resource(sim, name="log-disk"), 8.0,
        log.durable_bytes() + log.torn_tail_fragment(
            random.Random(tear_seed)))
    assert rebuilt.tail_truncated

    for current in (log, rebuilt):
        progress = [lsn for lsn in range(current.last_lsn, 0, -1)
                    if current.read(lsn).kind == KIND_REORG_PROGRESS]
        assert list(current.newest_of_kind(KIND_REORG_PROGRESS)) == progress
        engine.log = current
        for pid, store in stores.items():
            found = store.latest_record()
            expected = _latest_by_full_decode(current, pid)
            assert found == expected
            assert (found and found.lsn) == (expected and expected.lsn)
    assert stores[2].latest_record().is_tombstone
    assert stores[4].latest_record() is None
    assert rebuilt.last_lsn < log.last_lsn
    # The rebuilt log's newest partition-1 record is the one before the
    # torn delta.
    assert _latest_by_full_decode(rebuilt, 1).lsn < \
        _latest_by_full_decode(log, 1).lsn


# -- (d) size ----------------------------------------------------------------------


@pytest.mark.parametrize("reorg_cls,checkpoint_every,min_records", [
    (IncrementalReorganizer, 8, 680 // 8),
    (TwoLockReorganizer, 8, 680),
])
def test_progress_bytes_stay_within_three_full_records(
        reorg_cls, checkpoint_every, min_records):
    """The bound is on the reorganizer's own state.  The TRT's contents
    ride along whole in every record (§4.4's optional TRT checkpoint)
    and scale with the concurrent update load, not with the partition,
    so the run is load-free."""
    db, reorg, store, proc, snapshots = _launch(
        reorg_cls, "wal", checkpoint_every, objects=680, mpl=0)
    _run_to_end(db, proc)
    records = [r for r in db.engine.log.records()
               if isinstance(r, ReorgProgressRecord) and not r.is_tombstone]
    assert len(records) >= min_records
    total = sum(len(r.encode()) for r in records)
    full = max(len(ReorgProgressRecord(
        0, 0, partition_id=PARTITION, algorithm=state.algorithm,
        state=encode_reorg_state(state)).encode())
        for _, state, _ in snapshots)
    # The parent commit wrote one full record per checkpoint.
    assert total <= 3 * full, (total, full, len(records))
