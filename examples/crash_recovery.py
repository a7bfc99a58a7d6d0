#!/usr/bin/env python3
"""Failure handling (§4.4): crash in the middle of a reorganization.

The system fails while IRA is migrating objects under concurrent load.
ARIES-style restart recovery rolls the in-flight migration back (§3.5),
the reorganizer's checkpointed state is rolled forward over the log, the
TRT is reconstructed, and the reorganization resumes where it left off —
"it tries to minimize the amount of wasted work".

Run:  python examples/crash_recovery.py
"""

from repro import (
    CompactionPlan,
    Database,
    ExperimentConfig,
    ReorgConfig,
    WorkloadConfig,
)
from repro.core import ReorgStateStore, resume_reorganization
from repro.workload import WorkloadDriver
from repro.workload.metrics import ExperimentMetrics


def main() -> None:
    workload = WorkloadConfig(num_partitions=2, objects_per_partition=1020,
                              mpl=6, seed=3)
    db, layout = Database.with_workload(workload)
    state_store = ReorgStateStore()  # the reorganizer's checkpoint file

    # Start IRA (checkpointing its state every 50 migrations) plus the
    # transaction threads, and pull the plug 20 simulated seconds in.
    reorg = db.reorganizer(1, "ira", plan=CompactionPlan(),
                           reorg_config=ReorgConfig(checkpoint_every=50),
                           state_store=state_store)
    driver = WorkloadDriver(db.engine, layout,
                            ExperimentConfig(workload=workload))
    metrics = ExperimentMetrics("ira", workload.mpl)
    db.sim.spawn(reorg.run(), name="reorganizer")
    for thread_id in range(workload.mpl):
        db.sim.spawn(driver._thread_process(thread_id, metrics),
                     name=f"thread-{thread_id}")
    db.sim.run(until=20_000.0)

    print(f"crash at t=20s: {reorg.stats.objects_migrated} of "
          f"{reorg.stats.objects_found} objects migrated, "
          f"{state_store.saves} reorg-state checkpoints taken, "
          f"{len(metrics.records)} transactions committed")
    image = db.crash()

    # --- restart ----------------------------------------------------------
    db = Database.recover(image)
    rs = db.engine.recovery_stats
    print(f"\nrestart recovery: analyzed {rs.records_analyzed} log "
          f"records, redid {rs.records_redone}, rolled back "
          f"{len(rs.loser_txns)} loser transactions "
          f"({rs.clrs_written} CLRs)")
    report = db.verify_integrity()
    print(f"integrity after recovery: "
          f"{'OK' if report.ok else report.problems()[:3]}")
    assert report.ok

    # --- resume the reorganization (§4.4) -----------------------------------
    resumed = resume_reorganization(db.engine, state_store,
                                    plan=CompactionPlan())
    assert resumed is not None, "no reorg checkpoint found"
    already_done = len(resumed._migrated)
    stats = db.run(resumed.run(), name="resumed-reorganizer")
    print(f"\nresumed reorganization: {already_done} migrations recovered "
          f"from the checkpoint + log, {stats.objects_migrated} remaining "
          f"objects migrated now")

    # --- and it is the database again: an ordinary user transaction -----------
    # Enter through a persistent root (the stubs live in partition 0, so
    # the reorganization patched them rather than moved them), follow it
    # into the reorganized partition and update the object found there.
    stub = layout.root_stubs[1][0]

    def touch(txn):
        node = (yield from txn.read_refs(stub))[0]
        image = yield from txn.read(node, for_update=True)
        yield from txn.write_payload(node, 0, b"post-restart")
        return node, len(image.payload)

    node, size = db.execute(touch)
    print(f"\nuser transaction after restart: followed {stub} to {node} "
          f"and rewrote the head of its {size}-byte payload")
    assert db.store.read_object(node).payload.startswith(b"post-restart")

    final = db.partition_stats(1)
    report = db.verify_integrity()
    print(f"\nfinal state: {final.live_objects} objects, integrity "
          f"{'OK' if report.ok else 'BROKEN'}")
    assert report.ok
    assert final.live_objects == workload.objects_per_partition


if __name__ == "__main__":
    main()
