"""The configuration surface, counted (simplicity-review, "Options").

Every settable field doubles what tests and benchmarks have to cover, so
the set is pinned: adding an option is a visible one-line edit here, and
a field that nothing under ``src/repro/`` reads — a knob that does
nothing — fails.  What the system can work out from its inputs is
derived, not set: the §4.1 lock history is kept exactly when
transactions release read locks early.
"""

import ast
import dataclasses
import pathlib

import repro
from repro import (CompactionPlan, Database, ExperimentConfig, SystemConfig,
                   WorkloadConfig, WorkloadDriver)
from repro import config as config_module

SRC = pathlib.Path(repro.__file__).parent

FIELDS = {
    "RetryPolicy": {
        "max_retries", "kind", "base_ms", "factor", "max_ms", "jitter",
        "low_ms", "high_ms"},
    "SystemConfig": {
        "page_size", "cpu_count", "lock_timeout_ms", "log_flush_ms",
        "cpu_object_access_ms", "cpu_update_extra_ms", "cpu_undo_per_op_ms",
        "cpu_traverse_ms", "cpu_migrate_ms", "cpu_ref_patch_ms",
        "disk_resident", "buffer_pool_pages", "disk_read_ms",
        "disk_write_ms", "ert_bucket_capacity", "deadlock_detection",
        "strict_transactions", "lock_manager", "lock_escalate_after",
        "lock_partition_escalate_after", "lock_deescalate_on_conflict",
        "io_retry", "verify_page_reads"},
    "WorkloadConfig": {
        "num_partitions", "objects_per_partition", "mpl", "ops_per_trans",
        "update_prob", "glue_factor", "cluster_size", "branching",
        "payload_bytes", "ref_update_prob", "seed"},
    "ReorgConfig": {
        "migration_batch_size", "collect_garbage", "checkpoint_every",
        "deadlock_retry"},
    "ServeConfig": {
        "arrival", "arrival_rate_tps", "flash_multiplier", "flash_start_ms",
        "flash_duration_ms", "diurnal_period_ms", "diurnal_amplitude",
        "zipf_s", "queue_depth", "servers", "queue_deadline_ms",
        "response_deadline_ms", "abort_retry", "duration_ms", "seed"},
    "FleetConfig": {"workers", "algorithm", "lease_ms", "heartbeat_ms"},
    "GovernorConfig": {
        "tick_ms", "window_ms", "shed_slo", "deadline_miss_slo",
        "pace_delay_ms", "pause_after_breaches"},
    "DistConfig": {
        "node_count", "objects_per_partition", "payload_bytes",
        "remote_ref_fraction", "local_hub_fraction", "hub_fanout", "seed",
        "link_delay_min_ms", "link_delay_max_ms", "heartbeat_ms",
        "suspect_after_ms", "rpc_deadline_ms", "decision_timeout_ms",
        "scrub_interval_ms", "scrub_pages_per_sweep",
        "migration_batch_size", "horizon_ms"},
    "MvccConfig": {"merge_batch_size", "gc_every_commits", "record_history"},
    "ExperimentConfig": {"workload", "system", "horizon_ms"},
}

#: Fields no attribute access under ``src/repro/`` reads, with the reason
#: each is still accepted.
UNREAD = {
    # perf/adapter.py:355 passes it and perf/ may not change in the PR
    # that would drop it (ROADMAP item 3(g)).
    ("ExperimentConfig", "system"),
}


def _config_classes():
    return {name: cls for name, cls in vars(config_module).items()
            if dataclasses.is_dataclass(cls)}


def test_the_set_of_options_is_pinned():
    actual = {name: {f.name for f in dataclasses.fields(cls)}
              for name, cls in _config_classes().items()}
    assert actual == FIELDS
    settable = sum(len(names) for name, names in FIELDS.items()
                   if name != "RetryPolicy")
    assert settable == 86


#: How ``src/repro/`` names a configuration object it reads a field of
#: (``cfg.io_retry``, ``self.engine.config.lock_manager``, ...).  Names
#: alone would let ``txn.system`` pass for ``ExperimentConfig.system``
#: and ``args.partitions`` for the late ``FleetConfig.partitions``.
CONFIG_RECEIVERS = {"cfg", "config", "workload", "experiment",
                    "reorg_config", "mvcc_cfg"}


def test_every_option_is_read_by_something():
    read = set()
    for path in SRC.rglob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            receiver = node.value
            name = (receiver.attr if isinstance(receiver, ast.Attribute)
                    else getattr(receiver, "id", None))
            if name in CONFIG_RECEIVERS or isinstance(receiver, ast.Call):
                read.add(node.attr)
    # RetryPolicy is the value the three policy fields hold; its own
    # ``delay_ms`` / ``exhausted`` in config.py are what read its fields.
    dead = {(name, field.name) for name, cls in _config_classes().items()
            for field in dataclasses.fields(cls)
            if name != "RetryPolicy" and field.name not in read}
    assert dead == UNREAD


def test_no_accessor_turns_scalars_into_a_policy():
    for name, cls in _config_classes().items():
        assert not [attr for attr in vars(cls) if "retry_policy" in attr], name


# -- derived, not set: the §4.1 lock history ---------------------------------

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)


def _history(engine):
    return engine.locks._history, engine.locks._tid_history


def test_a_strict_engine_keeps_no_lock_history():
    """Four threads of the paper's read/update mix racing an IRA run:
    under strict 2PL nothing can read the history, so none is kept."""
    for system in (SystemConfig(),
                   SystemConfig(lock_manager="hier", lock_escalate_after=3)):
        db, layout = Database.with_workload(WORKLOAD, system=system)
        assert not db.engine.locks.track_history
        driver = WorkloadDriver(db.engine, layout,
                                ExperimentConfig(workload=WORKLOAD))
        metrics = driver.run(
            reorganizer=db.reorganizer(1, "ira", plan=CompactionPlan()))
        assert metrics.reorg_stats.objects_migrated == 170
        assert db.engine.locks.stats.waits > 0
        assert _history(db.engine) == ({}, {})


def test_a_relaxed_engine_keeps_it_and_clears_it_per_transaction():
    for manager in ("flat", "hier"):
        db, _ = Database.with_workload(WORKLOAD, system=SystemConfig(
            strict_transactions=False, lock_manager=manager))
        engine = db.engine
        assert engine.locks.track_history
        oid = next(iter(engine.store.partition(1).live_oids()))

        def reader():
            txn = engine.txns.begin()
            yield from txn.read(oid)
            assert not engine.locks.holds(txn.tid, oid)
            assert engine.locks.ever_lockers(oid) == {txn.tid}
            yield from txn.commit()

        db.run(reader())
        assert _history(engine) == ({}, {})
