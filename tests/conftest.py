"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Database, StorageEngine, SystemConfig, WorkloadConfig
from repro.config import DistConfig, FleetConfig
from repro.engine import Probe
from repro.sim import Simulator
from repro.storage import ObjectImage


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def engine():
    """A fresh engine with two empty partitions."""
    eng = StorageEngine(SystemConfig())
    eng.create_partition(1)
    eng.create_partition(2)
    return eng


@pytest.fixture
def tiny_workload():
    """The smallest paper-shaped workload: 2 partitions of 2 clusters."""
    return WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)


@pytest.fixture
def small_db(tiny_workload):
    """A loaded database plus its layout."""
    return Database.with_workload(tiny_workload)


# -- engine-setup factories ---------------------------------------------------
#
# These are factories, not values: twin-comparison tests (chaos kill vs
# unkilled run, faulted cluster vs fault-free cluster) need two or more
# identical, independently built systems inside one test.

@pytest.fixture
def build_fleet_db():
    """Factory: the 3-partition waits-for database the fleet tests run
    their reorganizer fleets against."""
    def _build():
        workload = WorkloadConfig(num_partitions=3,
                                  objects_per_partition=340,
                                  mpl=4, seed=42)
        return Database.with_workload(
            workload, system=SystemConfig(deadlock_detection="waits-for"))
    return _build


@pytest.fixture
def run_fleet(build_fleet_db):
    """Factory: run a two-claim reorganizer fleet to completion on a
    fresh database, optionally chaos-killing worker 0 at ``kill_at``."""
    from repro.serve import ReorgFleet

    def _run(kill_at=None, workers=2):
        db, layout = build_fleet_db()
        engine = db.engine
        fleet = ReorgFleet(engine, [1, 2],
                           FleetConfig(workers=workers, lease_ms=200.0,
                                       heartbeat_ms=40.0),
                           layout=layout)
        monitors = fleet.install_monitors(limit=2)
        fleet.spawn()
        if kill_at is not None:
            engine.sim.call_later(
                kill_at, lambda: engine.sim.kill_matching("reorg-worker-0"))
        engine.sim.run(until=60_000.0)
        assert fleet.done, "fleet wedged before the horizon"
        return db, fleet, monitors
    return _run


@pytest.fixture
def small_dist_config():
    """Factory: the 3-node cluster configuration the 2PC tests use."""
    def _small(**overrides):
        base = dict(node_count=3, objects_per_partition=18, seed=11)
        base.update(overrides)
        return DistConfig(**base)
    return _small


@pytest.fixture
def run_clean_cluster():
    """Factory: build a cluster, reorganize every node, require quiesce
    and a clean deep verify; returns the finished cluster."""
    from repro.dist import DistCluster, cluster_deep_verify

    def _run(config):
        cluster = DistCluster(config).build()
        cluster.reorganize_all()
        assert cluster.run_until_reorgs_done(), "cluster did not quiesce"
        assert cluster_deep_verify(cluster) == []
        return cluster
    return _run


@pytest.fixture
def build_mvcc_db():
    """Factory: a loaded database with the MVCC tier attached and a
    :class:`~repro.explore.SnapshotHistory` subscribed (``recorded``),
    so the snapshot-isolation oracle can judge the run."""
    from repro.explore import SnapshotHistory
    from repro.mvcc import MvccTier

    def _build(mvcc_config=None, **workload_overrides):
        base = dict(num_partitions=2, objects_per_partition=170,
                    mpl=4, seed=7)
        base.update(workload_overrides)
        db, layout = Database.with_workload(WorkloadConfig(**base))
        tier = MvccTier.attach(db.engine, mvcc_config)
        recorded = db.engine.subscribe(SnapshotHistory())
        return db, layout, tier, recorded
    return _build


class OnReorg(Probe):
    """A probe calling ``fn(event, info)`` for every reorganizer event."""

    def __init__(self, fn):
        self.fn = fn

    def reorg(self, reorganizer, event, info):
        self.fn(event, info)


def run(engine, gen, name="test"):
    """Drive a generator to completion on the engine's simulator."""
    return engine.sim.run_process(gen, name=name)


def make_object(ref_capacity=4, payload=b"payload", refs=()):
    return ObjectImage.new(ref_capacity, payload=payload, refs=refs)


def committed(engine, body):
    """Run ``body(txn)`` inside a committed transaction on ``engine``."""
    def _wrapper():
        txn = engine.txns.begin()
        result = yield from body(txn)
        yield from txn.commit()
        return result
    return run(engine, _wrapper(), name="committed")


def committed_system(engine, body, reorg_partition=None):
    """Like :func:`committed` but as a system transaction (optionally a
    reorganizer's own, owning ``reorg_partition``)."""
    def _wrapper():
        txn = engine.txns.begin(system=True,
                                reorg_partition=reorg_partition)
        result = yield from body(txn)
        yield from txn.commit()
        return result
    return run(engine, _wrapper(), name="committed-system")
