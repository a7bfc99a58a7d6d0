"""Pinned-seed byte-identity: the determinism contract behind BENCH.json.

Every perf PR (ROADMAP item 3) must leave seeded runs byte-identical —
same simulated clock, same kernel counters, same WAL bytes, same page
images, same per-transaction records.  The bench `--compare` gate can
only catch drift *between* commits; these tests pin determinism *within*
one tree, across the configurations the gate relies on: memory- and
disk-resident systems, the one- and two-lock reorganizers, and a
policy-driven (RandomWalkPolicy) schedule — the last exercising the
kernel's general loop where the default runs exercise the fast one.

Generalizes the tracing-focused guard in test_cluster_identity.py.
"""

import pytest

from repro import Database, SystemConfig, WorkloadConfig
from repro.config import ExperimentConfig
from repro.core import CompactionPlan
from repro.explore.scheduler import RandomWalkPolicy
from repro.workload import WorkloadDriver

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)


def _observables(system, algorithm="ira", policy_seed=None):
    """Run workload + reorganization; return every observable byte."""
    db, layout = Database.with_workload(WORKLOAD, system=system)
    engine = db.engine
    if policy_seed is not None:
        engine.sim.set_policy(RandomWalkPolicy(seed=policy_seed))
    driver = WorkloadDriver(engine, layout, ExperimentConfig(
        workload=WORKLOAD, system=system))
    metrics = driver.run(
        reorganizer=db.reorganizer(1, algorithm, plan=CompactionPlan()))
    return {
        "sim_now": engine.sim.now,
        "counters": engine.sim.counters(),
        "summary": metrics.summary(),
        "records": [(r.thread_id, r.started_ms, r.finished_ms, r.retries)
                    for r in metrics.records],
        "wal": list(engine.log._encoded),
        "pages": {pid: engine.store.partition(pid).snapshot()
                  for pid in engine.store.partition_ids()},
    }


@pytest.mark.parametrize("system, algorithm, policy_seed", [
    pytest.param(SystemConfig(), "ira", None, id="memory-ira"),
    pytest.param(SystemConfig(disk_resident=True, buffer_pool_pages=8),
                 "ira", None, id="disk-ira"),
    pytest.param(SystemConfig(), "ira-2lock", None, id="memory-two-lock"),
    pytest.param(SystemConfig(), "ira", 99, id="memory-ira-random-walk"),
])
def test_pinned_seed_runs_are_byte_identical(system, algorithm, policy_seed):
    first = _observables(system, algorithm, policy_seed)
    second = _observables(system, algorithm, policy_seed)
    assert first == second
    # Non-vacuity: the run did real work in every observable dimension.
    assert first["sim_now"] > 0
    assert first["counters"]["events_dispatched"] > 0
    assert first["wal"]
    assert first["records"]
