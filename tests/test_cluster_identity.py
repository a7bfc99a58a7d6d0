"""The byte-identity guard: observing must not perturb the simulation.

Every engine probe's contract is that a seeded run with it subscribed is
*byte-identical* to the same run with nothing subscribed — same
simulated clock, same kernel event counts, same WAL bytes, same page
images, same metrics.  These tests pin that for the full workload +
reorganization pipeline, once per subscriber: the clustering tracer (in
both the memory-resident and the disk-resident, buffer-pool setting),
the history recorder, both lock monitors under the hierarchical manager,
and the snapshot-history recorder under the MVCC merge.
"""

import pytest

from repro import Database, SystemConfig, WorkloadConfig
from repro.bench import EXPERIMENTS, Arm
from repro.cluster import ClusterTracer
from repro.core import CompactionPlan
from repro.explore import (HistoryRecorder, LockFootprintMonitor,
                           LockHierarchyMonitor, SnapshotHistory)
from repro.mvcc import MvccTier

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)
IRA = Arm("ira", "ira")
MVCC = EXPERIMENTS["mvcc"].arm("mvcc")
HIER = SystemConfig(lock_manager="hier", lock_escalate_after=3)


def _tracer(engine, reorg):
    tracer = engine.subscribe(ClusterTracer())
    return lambda: (tracer.commits > 0 and tracer.graph.accesses > 0
                    and bool(tracer.graph.edges))


def _history(engine, reorg):
    history = engine.subscribe(HistoryRecorder(engine.sim))
    return lambda: bool(history.accesses and history.committed)


def _lock_monitors(engine, reorg):
    footprint = engine.subscribe(LockFootprintMonitor(engine, reorg))
    hierarchy = engine.subscribe(LockHierarchyMonitor(engine))
    return lambda: footprint.peak > 0 and hierarchy.checked > 0


def _snapshot_history(engine, reorg):
    recorded = engine.subscribe(SnapshotHistory())
    return lambda: bool(recorded.commit_log and recorded.history
                        and recorded.gc_log)


def _fingerprint(system, arm, subscribe=None):
    """Run workload + reorganization; return every observable byte and,
    when something was subscribed, whether it saw the run."""
    db, layout = Database.with_workload(WORKLOAD, system=system)
    engine = db.engine
    if arm.snapshot:
        MvccTier.attach(engine)
    reorg = db.reorganizer(1, arm.algorithm, plan=CompactionPlan())
    observed = subscribe(engine, reorg) if subscribe else None
    metrics = arm.driver(engine, layout, WORKLOAD).run(reorganizer=reorg)
    return {
        "sim_now": engine.sim.now,
        "counters": engine.sim.counters(),
        "summary": metrics.summary(),
        "records": [(r.thread_id, r.started_ms, r.finished_ms, r.retries)
                    for r in metrics.records],
        "wal": list(engine.log._encoded),
        "pages": {pid: engine.store.partition(pid).snapshot()
                  for pid in engine.store.partition_ids()},
    }, observed


@pytest.mark.parametrize("system, arm, subscribe", [
    pytest.param(SystemConfig(), IRA, _tracer, id="memory-resident"),
    pytest.param(SystemConfig(disk_resident=True, buffer_pool_pages=8),
                 IRA, _tracer, id="disk-resident"),
    pytest.param(SystemConfig(), IRA, _history, id="history"),
    pytest.param(HIER, IRA, _lock_monitors, id="lock-monitors-hier"),
    pytest.param(SystemConfig(), MVCC, _snapshot_history,
                 id="snapshot-history-mvcc"),
])
def test_tracing_is_byte_identical(system, arm, subscribe):
    plain, _ = _fingerprint(system, arm)
    traced, observed = _fingerprint(system, arm, subscribe)
    # The guard itself: every observable of the simulation matches.
    assert traced == plain
    # And the run was genuinely observed (the guard is not vacuous).
    assert observed()
