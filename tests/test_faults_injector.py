"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro import (
    CompactionPlan,
    Database,
    ExperimentConfig,
    StorageEngine,
    SystemConfig,
    WorkloadConfig,
)
from repro.core.checkpointing import (
    ReorgState,
    WalReorgStateStore,
    decode_reorg_state,
    encode_reorg_state,
)
from repro.faults import FaultInjector, FaultPlan
from repro.sim import Delay
from repro.storage.errors import PageChecksumError, PageRepairError
from repro.storage.oid import Oid
from repro.storage.page import snapshot_checksum_ok
from repro.wal import scan_frames
from repro.workload import WorkloadDriver
from repro.workload.metrics import ExperimentMetrics
from tests.conftest import committed, make_object

SMALL = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=3, seed=13)


def small_db(workload=SMALL, algorithm=None, system=None):
    """Workload database with MPL threads (and optionally a reorg) running."""
    db, layout = Database.with_workload(workload, system)
    driver = WorkloadDriver(db.engine, layout,
                            ExperimentConfig(workload=workload))
    metrics = ExperimentMetrics("x", workload.mpl)
    reorg_proc = None
    if algorithm is not None:
        reorg = db.reorganizer(1, algorithm, plan=CompactionPlan())
        reorg_proc = db.sim.spawn(reorg.run(), name="reorganizer")
    for i in range(workload.mpl):
        db.sim.spawn(driver._thread_process(i, metrics), name=f"thread-{i}")
    return db, metrics, reorg_proc


# -- FaultPlan validation ----------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"io_error_rate": 1.5},
    {"io_error_rate": -0.1},
    {"lock_storm_rate": 2.0},
    {"crash_at_ms": -1.0},
    {"kill_process_at_ms": -5.0},
    {"crash_at_lsn": 0},
    {"crash_at_page_write": 0},
])
def test_plan_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultPlan(**kwargs)


def test_plan_wants_crash_and_copy():
    assert not FaultPlan().wants_crash
    assert FaultPlan.crash_at(100.0).wants_crash
    assert FaultPlan.crash_at_write(7).wants_crash
    assert FaultPlan(crash_at_lsn=9).wants_crash
    assert not FaultPlan.kill_reorg_at(50.0).wants_crash
    base = FaultPlan(seed=3)
    assert base.copy(crash_at_ms=10.0).crash_at_ms == 10.0
    assert base.copy(crash_at_ms=10.0).seed == 3


# -- crash triggers ----------------------------------------------------------------


def test_crash_at_simulated_time():
    db, _, _ = small_db()
    injector = FaultInjector(FaultPlan.crash_at(1500.0), db.engine).attach()
    db.sim.run()
    assert injector.crashed
    assert injector.stats.crashes_fired == 1
    assert injector.crash_image is not None
    # engine.crash() detaches the injector: recovered engines are fault-free.
    assert db.engine.injector is None
    assert 1500.0 <= db.sim.now < 1502.0
    recovered = Database.recover(injector.crash_image)
    assert recovered.verify_integrity().ok


def test_crash_at_nth_page_write():
    db, _, _ = small_db()
    injector = FaultInjector(FaultPlan.crash_at_write(25), db.engine).attach()
    db.sim.run()
    assert injector.crashed
    assert injector.stats.page_writes_seen == 25
    recovered = Database.recover(injector.crash_image)
    assert recovered.verify_integrity().ok


def test_crash_at_lsn():
    db, _, _ = small_db()
    target = db.engine.log.last_lsn + 40
    injector = FaultInjector(FaultPlan(crash_at_lsn=target),
                             db.engine).attach()
    db.sim.run()
    assert injector.crashed
    assert db.engine.log.last_lsn >= target
    recovered = Database.recover(injector.crash_image)
    assert recovered.verify_integrity().ok


def test_crash_triggers_are_deterministic():
    def run_once():
        db, _, _ = small_db()
        injector = FaultInjector(FaultPlan.crash_at_write(25),
                                 db.engine).attach()
        db.sim.run()
        return db.sim.now, db.engine.log.last_lsn

    assert run_once() == run_once()


# -- targeted process kill ---------------------------------------------------------


def test_kill_reorg_leaves_workload_running():
    db, _, reorg_proc = small_db(algorithm="ira")
    injector = FaultInjector(FaultPlan.kill_reorg_at(2000.0),
                             db.engine).attach()
    db.sim.run(until=2500.0)
    assert injector.stats.kills_fired == 1
    assert injector.stats.processes_killed == 1
    assert not reorg_proc.alive
    # The rest of the system keeps running; only the reorganizer died.
    names = [p.name for p in db.sim.live_processes()]
    assert any(name.startswith("thread-") for name in names)
    assert not any("reorg" in name for name in names)
    # Recovery undoes whatever migration was in flight at the kill.
    recovered = Database.recover(db.crash())
    assert recovered.verify_integrity().ok
    assert recovered.partition_stats(1).live_objects == 170


# -- transient I/O faults ----------------------------------------------------------


def test_transient_io_faults_are_retried():
    db, _, _ = small_db()
    plan = FaultPlan(seed=7, io_error_rate=0.1)
    injector = FaultInjector(plan, db.engine).attach()
    db.sim.run(until=4000.0)
    db.sim.kill_all()
    engine = db.engine
    faults = engine.log.io_faults
    retries = engine.log.io_retries
    if engine.buffer is not None:
        faults += engine.buffer.stats.io_faults
        retries += engine.buffer.stats.io_retries
    assert injector.stats.io_faults_injected > 0
    assert faults == injector.stats.io_faults_injected
    # Every injected fault was absorbed by a backoff-retry, none escaped.
    assert retries == faults
    assert db.verify_integrity().ok


def test_page_io_faults_are_retried_by_the_buffer_pool():
    # Disk-resident: page reads and write-backs go through the buffer
    # pool's fault hook as well as log flushes through the log's.
    db, _, _ = small_db(system=SystemConfig(disk_resident=True,
                                            buffer_pool_pages=8))
    injector = FaultInjector(FaultPlan(seed=7, io_error_rate=0.1),
                             db.engine).attach()
    db.sim.run(until=4000.0)
    db.sim.kill_all()
    buffer, log = db.engine.buffer.stats, db.engine.log
    assert buffer.io_faults > 0
    assert buffer.io_faults + log.io_faults == \
        injector.stats.io_faults_injected
    assert buffer.io_retries == buffer.io_faults
    assert db.verify_integrity().ok


def test_io_faults_are_deterministic():
    def run_once():
        db, _, _ = small_db()
        injector = FaultInjector(FaultPlan(seed=7, io_error_rate=0.1),
                                 db.engine).attach()
        db.sim.run(until=4000.0)
        db.sim.kill_all()
        return injector.stats.io_faults_injected, db.engine.log.last_lsn

    first, second = run_once(), run_once()
    assert first == second


def test_io_fault_window_limits_injection():
    db, _, _ = small_db()
    # Rate 1.0 but the window closed before the workload started: no faults.
    plan = FaultPlan(seed=7, io_error_rate=1.0,
                     io_error_window_ms=(0.0, 0.0))
    injector = FaultInjector(plan, db.engine).attach()
    db.sim.run(until=1500.0)
    db.sim.kill_all()
    assert injector.stats.io_faults_injected == 0


# -- forced lock-timeout storms ----------------------------------------------------


def test_lock_storm_forces_timeouts():
    workload = SMALL.copy(mpl=6, update_prob=0.9)
    db, metrics, _ = small_db(workload=workload, algorithm="ira")
    plan = FaultPlan(seed=5, lock_storm_rate=1.0,
                     lock_storm_window_ms=(0.0, 3000.0))
    injector = FaultInjector(plan, db.engine).attach()
    db.sim.run(until=6000.0)
    db.sim.kill_all()
    stats = db.engine.locks.stats
    assert injector.stats.forced_lock_timeouts > 0
    assert stats.forced_timeouts == injector.stats.forced_lock_timeouts
    assert stats.forced_timeouts <= stats.timeouts
    assert metrics.aborts > 0


# -- attach/detach lifecycle -------------------------------------------------------


def test_detach_unwires_every_hook():
    db, _, _ = small_db()
    plan = FaultPlan(seed=1, io_error_rate=0.5, lock_storm_rate=0.5)
    injector = FaultInjector(plan, db.engine).attach()
    assert db.engine.injector is injector
    assert db.engine.log.fault_hook is not None
    assert db.engine.locks.fault_hook is not None
    injector.detach()
    injector.detach()  # idempotent
    assert db.engine.injector is None
    assert db.engine.log.fault_hook is None
    assert db.engine.locks.fault_hook is None


# -- silent corruption -------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"torn_page_write": 0},
    {"bit_flip_at_ms": -1.0},
    {"bit_flip_target": "ram"},
])
def test_plan_rejects_bad_corruption_values(kwargs):
    with pytest.raises(ValueError):
        FaultPlan(**kwargs)


def test_plan_wants_corruption():
    assert not FaultPlan().wants_corruption
    assert not FaultPlan.crash_at(100.0).wants_corruption
    assert FaultPlan.crash_with_torn_tail(100.0).wants_corruption
    assert FaultPlan.bit_flip_then_crash(50.0, 100.0).wants_corruption
    assert FaultPlan.tear_checkpoint(1, 100.0).wants_corruption


def _mid_run_checkpoint(db, at_ms):
    def proc():
        yield Delay(max(0.0, at_ms - db.sim.now))
        db.engine.take_checkpoint()
    db.sim.spawn(proc(), name="checkpointer")


def test_torn_checkpoint_write_is_detected_and_healed():
    db, _, _ = small_db()
    injector = FaultInjector(FaultPlan.tear_checkpoint(1, 2000.0, seed=13),
                             db.engine).attach()
    _mid_run_checkpoint(db, 1000.0)
    db.sim.run()
    assert injector.crashed
    assert injector.stats.torn_page_writes == 1
    (kind, pid, page_no), = injector.stats.corruptions
    assert kind == "torn_page"

    # The torn image really is on disk under the full-image checksum...
    image = injector.crash_image
    state = image.snapshots.load(image.snapshots.latest())[
        "store"]["partitions"][pid]["pages"][page_no]
    assert not snapshot_checksum_ok(state)

    # ...and recovery detects it, rebuilds the page, and comes up clean.
    recovered = Database.recover(image)
    stats = recovered.engine.recovery_stats
    assert stats.pages_corrupt == 1
    assert stats.pages_repaired + stats.pages_rebuilt_from_empty == 1
    assert recovered.verify_integrity().ok


def test_durable_bit_flip_is_repaired_from_older_snapshot():
    db, _, _ = small_db()
    plan = FaultPlan.bit_flip_then_crash(1500.0, 2000.0, seed=13)
    injector = FaultInjector(plan, db.engine).attach()
    _mid_run_checkpoint(db, 1000.0)  # flip lands in *this* snapshot; the
    db.sim.run()                     # load checkpoint is the repair base
    assert injector.stats.bit_flips == 1
    (kind, pid, page_no), = injector.stats.corruptions
    assert kind == "bit_flip_durable"

    recovered = Database.recover(injector.crash_image)
    stats = recovered.engine.recovery_stats
    assert stats.pages_corrupt == 1
    assert stats.pages_repaired + stats.pages_rebuilt_from_empty == 1
    assert recovered.verify_integrity().ok


def test_bit_flip_in_unlogged_base_refuses_loudly():
    # The only snapshot is the bulk-load checkpoint, whose content never
    # went through the WAL: a flip there is unrepairable and recovery
    # must say so, not hand back a silently-wrong page.
    db, _, _ = small_db()
    plan = FaultPlan.bit_flip_then_crash(1000.0, 2000.0, seed=13)
    injector = FaultInjector(plan, db.engine).attach()
    db.sim.run()
    assert injector.stats.bit_flips == 1
    with pytest.raises(PageRepairError):
        Database.recover(injector.crash_image)


def test_live_bit_flip_fails_page_verification():
    # No workload threads: nothing can rewrite (and thereby launder)
    # the flipped page before we look at it.
    eng = StorageEngine(SystemConfig())
    eng.create_partition(1)
    committed(eng, lambda txn: txn.create_object(
        1, make_object(payload=b"data")))

    plan = FaultPlan(bit_flip_at_ms=5.0, bit_flip_target="live", seed=13)
    injector = FaultInjector(plan, eng).attach()
    eng.sim.run(until=10.0)
    assert injector.stats.bit_flips == 1
    (kind, pid, page_no), = injector.stats.corruptions
    assert kind == "bit_flip_live"
    with pytest.raises(PageChecksumError):
        eng.store.partition(pid).page(page_no).verify()


def test_torn_log_tail_is_truncated_by_recovery():
    db, _, _ = small_db()
    plan = FaultPlan.crash_with_torn_tail(1500.0, seed=13)
    injector = FaultInjector(plan, db.engine).attach()
    db.sim.run()
    assert injector.stats.torn_log_tails == 1
    assert ("torn_log_tail", -1, -1) in injector.stats.corruptions

    durable = injector.crash_image.durable_log
    _, consumed, problem = scan_frames(durable)
    assert problem is not None or consumed < len(durable)

    recovered = Database.recover(injector.crash_image)
    assert recovered.engine.recovery_stats.log_tail_truncated
    assert recovered.verify_integrity().ok


def test_corruption_injection_is_deterministic():
    def run_once():
        db, _, _ = small_db()
        plan = FaultPlan.bit_flip_then_crash(1500.0, 2000.0, seed=13)
        injector = FaultInjector(plan, db.engine).attach()
        _mid_run_checkpoint(db, 1000.0)
        db.sim.run()
        return list(injector.stats.corruptions)

    first, second = run_once(), run_once()
    assert first and first == second


# -- WAL-carried reorg checkpoints -------------------------------------------------


def _sample_state():
    a, b, c = Oid(1, 2, 3), Oid(1, 2, 4), Oid(1, 5, 0)
    new = Oid(1, 9, 1)
    return ReorgState(
        algorithm="ira", partition_id=1,
        order=[a, b, c],
        parents={a: {b, c}, b: set()},
        mapping={a: new},
        migrated={a},
        allocated_at_traversal={new},
        log_lsn=77,
        in_progress=(b, Oid(1, 9, 2)),
        relocation_floor=4,
        trt_lsn=31,
    )


def test_encode_decode_reorg_state_round_trip():
    state = _sample_state()
    assert decode_reorg_state(encode_reorg_state(state)) == state


def test_encode_decode_minimal_state():
    state = ReorgState(algorithm="ira-2lock", partition_id=2, order=[],
                       parents={}, mapping={}, migrated=set(),
                       allocated_at_traversal=set(), log_lsn=0)
    assert decode_reorg_state(encode_reorg_state(state)) == state


def test_wal_state_store_save_load_tombstone():
    db, _ = Database.with_workload(SMALL)
    store = WalReorgStateStore(db.engine, 1)
    assert store.load() is None
    assert not store.completed()

    first = _sample_state()
    store.save(first)
    assert store.saves == 1
    assert store.load() == first

    second = _sample_state()
    second.log_lsn = 123
    store.save(second)
    assert store.load() == second  # latest record wins

    # Another partition's store does not see these records.
    assert WalReorgStateStore(db.engine, 2).load() is None

    store.clear()  # completion tombstone
    assert store.load() is None
    assert store.completed()

    store.save(first)  # progress after a tombstone re-arms resume
    assert not store.completed()
    assert store.load() == first
