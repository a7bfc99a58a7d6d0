"""The correctness oracles with a reorganizer *fleet* live.

The tentpole's gate: serializability and transparency must keep passing
with at least two reorganizers running concurrently under the serving
layer's open-loop user load — including across a chaos-kill takeover.
"""

import pytest

from repro.config import FleetConfig, ServeConfig, SystemConfig, \
    WorkloadConfig
from repro.database import Database
from repro.explore import HistoryRecorder, OracleContext, run_oracles
from repro.serve import ReorgFleet, ServingLayer


def _run(kill_at=None):
    workload = WorkloadConfig(num_partitions=3, objects_per_partition=340,
                              mpl=4, seed=42)
    db, layout = Database.with_workload(
        workload, system=SystemConfig(deadlock_detection="waits-for"))
    engine = db.engine
    history = engine.subscribe(HistoryRecorder(engine.sim))

    initial_images = {oid: engine.store.read_object(oid).copy()
                      for oid in engine.store.all_live_oids()}
    start_lsn = engine.log.last_lsn

    fleet = ReorgFleet(engine, [1, 2],
                       FleetConfig(workers=2, lease_ms=200.0,
                                   heartbeat_ms=40.0),
                       layout=layout)
    monitors = fleet.install_monitors(limit=2)
    layer = ServingLayer(engine, layout,
                         ServeConfig(arrival="poisson",
                                     arrival_rate_tps=15.0,
                                     duration_ms=6_000.0, servers=4,
                                     seed=42),
                         workload)
    if kill_at is not None:
        engine.sim.call_later(
            kill_at, lambda: engine.sim.kill_matching("reorg-worker-0"))
    layer.run(fleet=fleet)
    assert fleet.done
    ctx = OracleContext(engine=engine,
                        reorg=list(fleet.reorganizers.values()),
                        history=history, monitor=monitors,
                        initial_images=initial_images,
                        start_lsn=start_lsn)
    return db, fleet, run_oracles(ctx)


def _assert_all_ok(verdicts):
    failed = [v.describe() for v in verdicts if not v.ok]
    assert not failed, "oracle violations:\n" + "\n".join(failed)


def test_oracles_pass_with_two_reorganizers_live():
    db, fleet, verdicts = _run()
    names = {v.name for v in verdicts}
    assert {"serializability", "transparency", "lock_footprint",
            "recovery_idempotence", "deep_verify"} <= names
    assert len(fleet.reorganizers) >= 2
    assert sorted(fleet.completed) == [1, 2]
    _assert_all_ok(verdicts)
    assert db.verify_integrity().ok


def test_oracles_pass_across_chaos_kill_takeover():
    db, fleet, verdicts = _run(kill_at=300.0)
    assert fleet.leases.takeovers >= 1
    assert sorted(fleet.completed) == [1, 2]
    _assert_all_ok(verdicts)
    assert db.verify_integrity().ok
