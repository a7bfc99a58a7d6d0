"""The reorganizer fleet: leases, chaos-kill takeover, WAL resume.

The headline test kills one of two workers mid-IRA and requires the
survivor to (a) wait out the lease, (b) reap the corpse's orphaned
system transactions, (c) resume from the WAL-carried ``REORG_PROGRESS``
state rather than restarting, and (d) finish with byte-identical final
state to an unkilled twin — all while the §4.2 two-lock footprint
oracle stays clean.
"""

import pytest

from repro.config import FleetConfig
from repro.verify import graph_signature
from repro.serve import LeaseTable, ReorgFleet
from repro.sim import Delay, Simulator


# -- leases -------------------------------------------------------------------

def test_lease_acquire_renew_release():
    sim = Simulator()
    table = LeaseTable(sim, lease_ms=100.0)
    assert table.acquire(1, "w0") is not None
    assert table.holder(1) == "w0"
    assert table.acquire(1, "w1") is None      # live foreign lease
    assert table.refusals == 1
    assert table.renew(1, "w0")
    assert not table.renew(1, "w1")            # not the owner
    table.release(1, "w0")
    assert table.holder(1) is None


def test_lease_expiry_enables_takeover_with_generation_bump():
    sim = Simulator()
    table = LeaseTable(sim, lease_ms=100.0)
    first = table.acquire(1, "w0")

    def proc():
        yield Delay(99.0)
        assert table.holder(1) == "w0"         # still live at 99 ms
        assert table.acquire(1, "w1") is None
        yield Delay(2.0)
        assert table.holder(1) is None         # expired: presumed dead
        second = table.acquire(1, "w1")
        assert second is not None
        assert second.generation == first.generation + 1
        # The corpse cannot renew or release a lease it lost.
        assert not table.renew(1, "w0")
        table.release(1, "w0")
        assert table.holder(1) == "w1"

    sim.run_process(proc())
    assert table.takeovers == 1
    assert table.refusals == 1


def test_lease_boundary_heartbeat_at_exact_expiry_is_expired():
    """At exactly ``expires_ms`` the lease is dead: the boundary
    heartbeat fails and a boundary acquire succeeds — the tie-break is
    defined, not left to event ordering."""
    sim = Simulator()
    table = LeaseTable(sim, lease_ms=100.0)
    table.acquire(1, "w0")

    def proc():
        yield Delay(100.0)                     # now == expires_ms exactly
        assert table.holder(1) is None
        assert not table.renew(1, "w0")        # boundary heartbeat: expired
        lease = table.acquire(1, "w1")         # boundary takeover: succeeds
        assert lease is not None and lease.generation == 2

    sim.run_process(proc())
    assert table.takeovers == 1


@pytest.mark.parametrize("renew_first", [True, False])
def test_lease_boundary_outcome_is_dispatch_order_independent(renew_first):
    """Same-timestamp heartbeat vs takeover at the expiry instant ends
    in the same state regardless of which event dispatches first."""
    sim = Simulator()
    table = LeaseTable(sim, lease_ms=100.0)
    table.acquire(1, "w0")
    outcomes = {}

    def heartbeat():
        yield Delay(100.0)
        outcomes["renewed"] = table.renew(1, "w0")

    def takeover():
        yield Delay(100.0)
        outcomes["acquired"] = table.acquire(1, "w1") is not None

    # Spawn order decides same-timestamp dispatch order in the kernel.
    if renew_first:
        sim.spawn(heartbeat(), name="heartbeat")
        sim.spawn(takeover(), name="takeover")
    else:
        sim.spawn(takeover(), name="takeover")
        sim.spawn(heartbeat(), name="heartbeat")
    sim.run()
    assert outcomes == {"renewed": False, "acquired": True}
    assert table.holder(1) == "w1"


# -- the fleet ----------------------------------------------------------------
#
# Engine setup lives in conftest.py: ``build_fleet_db`` builds the
# 3-partition waits-for database, ``run_fleet`` runs a two-claim fleet
# to completion with an optional chaos kill.

def test_fleet_reorganizes_all_claims_without_faults(run_fleet):
    db, fleet, monitors = run_fleet()
    assert sorted(fleet.completed) == [1, 2]
    assert fleet.leases.takeovers == 0
    assert db.verify_integrity().ok
    # Two workers, two claims: both partitions ran under a live lease.
    assert set(fleet.stats) == {1, 2}
    assert all(not monitor.violations for monitor in monitors)


def _count_reap_scans(monkeypatch):
    """Count ``TransactionTable.scan`` calls made by the fleet module
    (its reaper) only — resume's roll-forward scans are not counted."""
    from repro.serve import fleet as fleet_module
    real = fleet_module.TransactionTable
    calls = []

    class CountingTable:
        @staticmethod
        def scan(log):
            calls.append(log.last_lsn)
            return real.scan(log)

    monkeypatch.setattr(fleet_module, "TransactionTable", CountingTable)
    return calls


def test_clean_claims_decode_no_log_to_reap(run_fleet, monkeypatch):
    scans = _count_reap_scans(monkeypatch)
    _, fleet, _ = run_fleet()
    assert sorted(fleet.completed) == [1, 2]
    # No worker died, so no claim found an orphan to settle.
    assert fleet.orphans_committed + fleet.orphans_aborted == 0
    assert scans == []


def test_chaos_kill_mid_ira_takeover_resumes_from_wal(run_fleet,
                                                      monkeypatch):
    """The satellite: kill worker-0 mid-reorganization."""
    twin_db, twin_fleet, _ = run_fleet(kill_at=None)
    twin_signature = graph_signature(twin_db.engine)

    scans = _count_reap_scans(monkeypatch)
    db, fleet, monitors = run_fleet(kill_at=300.0)
    # The lease expired and the survivor took the partition over —
    # exactly once; no partition was ever worked twice concurrently.
    assert fleet.leases.takeovers == 1
    # Takeover *resumed* from the WAL-carried REORG_PROGRESS state (the
    # kill landed after the first checkpoint) and reaped the corpse's
    # in-flight system transactions.
    assert fleet.resumes >= 1
    assert fleet.orphans_committed + fleet.orphans_aborted >= 1
    # Settling them needed the log's commit records.
    assert scans
    assert sorted(fleet.completed) == [1, 2]
    assert db.verify_integrity().ok
    # §4.2: every incarnation, including the killed one, held at most
    # two distinct object locks at a time.
    assert monitors, "footprint monitors were never installed"
    assert all(not monitor.violations for monitor in monitors)
    # Crash-transparency: the final object graph is byte-identical to
    # the unkilled twin's.
    assert graph_signature(db.engine) == twin_signature


@pytest.mark.parametrize("kill_at", [30.0, 150.0])
def test_chaos_kill_before_first_checkpoint_restarts_cleanly(run_fleet,
                                                             kill_at):
    """An early kill (no checkpoint yet) restarts the partition from
    scratch; final state still matches the twin."""
    twin_db, _, _ = run_fleet(kill_at=None)
    db, fleet, _ = run_fleet(kill_at=kill_at)
    assert fleet.leases.takeovers == 1
    assert sorted(fleet.completed) == [1, 2]
    assert db.verify_integrity().ok
    assert graph_signature(db.engine) == graph_signature(twin_db.engine)


def test_scrubber_stays_clean_through_chaos_kill_takeover(build_fleet_db):
    """A background scrubber sweeps every page while worker-0 is
    chaos-killed mid-IRA and the survivor takes the partition over.
    Pages in flux during migration, takeover and orphan reaping must
    never read as corruption, and the scrubber must keep completing
    sweeps throughout — no false positives, no wedging."""
    from repro.storage.scrub import Scrubber

    db, layout = build_fleet_db()
    engine = db.engine
    scrubber = Scrubber(engine, interval_ms=15.0, pages_per_sweep=6)
    engine.sim.spawn(scrubber.run(), name="scrubber")
    fleet = ReorgFleet(engine, [1, 2],
                       FleetConfig(workers=2, lease_ms=200.0,
                                   heartbeat_ms=40.0),
                       layout=layout)
    fleet.spawn()
    engine.sim.call_later(
        300.0, lambda: engine.sim.kill_matching("reorg-worker-0"))
    while not fleet.done and engine.sim.now < 60_000.0:
        engine.sim.run(until=engine.sim.now + 500.0)
    assert fleet.done, "fleet wedged before the horizon"
    assert fleet.leases.takeovers == 1
    sweeps_during = scrubber.stats.sweeps_completed
    assert sweeps_during >= 1, "scrubber never finished a sweep under chaos"
    # One more full pass over the post-reorganization layout.
    engine.sim.run(until=engine.sim.now + 2_000.0)
    scrubber.stop()
    assert scrubber.stats.sweeps_completed > sweeps_during
    assert scrubber.stats.clean, scrubber.stats.findings
    assert sorted(fleet.completed) == [1, 2]
    assert db.verify_integrity().ok


def test_no_concurrent_ownership_during_takeover(build_fleet_db):
    """While the dead worker's lease is live, nobody else may claim the
    partition — the mutual-exclusion window the lease term guarantees."""
    db, layout = build_fleet_db()
    engine = db.engine
    fleet = ReorgFleet(engine, [1],
                       FleetConfig(workers=2, lease_ms=300.0,
                                   heartbeat_ms=50.0),
                       layout=layout)
    owners = []

    def watch(reorg):
        owners.append((engine.sim.now, fleet.leases.holder(
            reorg.partition_id)))

    fleet.on_reorganizer = watch
    fleet.spawn()
    engine.sim.call_later(
        100.0, lambda: engine.sim.kill_matching("reorg-worker-0"))
    engine.sim.run(until=60_000.0)
    assert fleet.done
    assert db.verify_integrity().ok
    # The takeover incarnation started only after the dead owner's
    # lease ran out — at least lease_ms after its last heartbeat, which
    # was at most heartbeat_ms before the kill.
    takeover_times = [at for at, _ in owners[1:]]
    assert takeover_times, "no takeover happened"
    assert all(at >= 100.0 + 300.0 - 50.0 for at in takeover_times)


# -- serving beside a two-lock fleet -----------------------------------------

def _serve_beside_fleet(algorithm, seed, objects, rate_tps, duration_ms,
                        servers):
    from repro.config import ServeConfig, SystemConfig, WorkloadConfig
    from repro.database import Database
    from repro.serve import ServingLayer
    workload = WorkloadConfig(num_partitions=3, objects_per_partition=objects,
                              mpl=servers, seed=seed)
    db, layout = Database.with_workload(
        workload, system=SystemConfig(deadlock_detection="waits-for"))
    layer = ServingLayer(db.engine, layout, ServeConfig(
        arrival="poisson", arrival_rate_tps=rate_tps, zipf_s=1.1,
        servers=servers, duration_ms=duration_ms, seed=seed), workload)
    fleet = ReorgFleet(db.engine, [1, 2, 3],
                       FleetConfig(workers=2, algorithm=algorithm),
                       layout=layout)
    return db, fleet, layer.run(fleet=fleet)


@pytest.mark.parametrize("seed", [5, 6])
def test_serving_beside_a_two_lock_fleet_keeps_the_graph_intact(seed):
    """Zipf-skewed Poisson load against two two-lock workers: at these
    seeds a migration is deadlock-victimised twice in a row, which used
    to strand an orphan copy with dangling child references."""
    db, fleet, metrics = _serve_beside_fleet(
        "ira-2lock", seed, objects=680, rate_tps=30.0,
        duration_ms=60_000.0, servers=30)
    assert sorted(fleet.completed) == [1, 2, 3]
    assert metrics.completed > 0
    assert [db.partition_stats(pid).live_objects
            for pid in (1, 2, 3)] == [680, 680, 680]
    assert db.verify_integrity().ok


@pytest.mark.parametrize("algorithm", ["ira-2lock", "ira"])
def test_stale_read_is_retried_only_beside_a_two_lock_fleet(monkeypatch,
                                                            algorithm):
    """The §4.2 stale-address abort is a normal outcome only while a
    two-lock migration can free a slot under a queued reader; under
    basic IRA a missing object is a bug and must stay loud."""
    from repro.serve import frontend
    from repro.storage import NoSuchObjectError
    real_walk = frontend.random_walk_transaction
    stale = []

    def walk_with_one_stale_read(engine, *args):
        if not stale:
            stale.append(engine.sim.now)
            raise NoSuchObjectError("1:0:0")
        return (yield from real_walk(engine, *args))

    monkeypatch.setattr(frontend, "random_walk_transaction",
                        walk_with_one_stale_read)
    run = lambda: _serve_beside_fleet(  # noqa: E731
        algorithm, 42, objects=170, rate_tps=15.0, duration_ms=3_000.0,
        servers=4)
    if algorithm == "ira":
        with pytest.raises(NoSuchObjectError):
            run()
        return
    db, fleet, metrics = run()
    assert stale and metrics.aborts >= 1
    assert metrics.completed > 0
    assert db.verify_integrity().ok
