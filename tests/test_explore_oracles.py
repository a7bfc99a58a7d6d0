"""Oracle soundness: planted bugs must fire exactly the right oracle.

The mutation tests are the core of the suite — an oracle that cannot
catch its target bug is dead code.  Each mutation from
``repro.explore.mutations`` plants one realistic reorganizer defect;
the matching oracle must report a violation, and an unmutated run under
the same schedule must stay clean.
"""

import pytest

from repro.explore import (
    MUTATIONS,
    Access,
    LockFootprintMonitor,
    TracingPolicy,
    check_recovery_idempotence,
    check_serializability,
    conflict_graph,
    explore,
    run_schedule,
)
from repro.explore.explorer import default_workload
from repro.database import Database

#: Mutated runs can wedge (a thread dying on planted damage while
#: holding locks livelocks the rest); a short horizon keeps the test
#: fast — the bugs all bite within the first few simulated seconds.
HORIZON_MS = 30_000.0


# -- serializability over synthetic histories ---------------------------------

class _History:
    def __init__(self, accesses, committed):
        self.accesses = accesses
        self.committed = set(committed)


def _accesses(steps):
    return [Access(seq, tid, action, oid, float(seq))
            for seq, (tid, action, oid) in enumerate(steps, start=1)]


def test_conflict_cycle_is_detected():
    # T1 writes x before T2, but T2 writes y before T1: a classic
    # non-serializable interleaving (impossible under strict 2PL).
    history = _History(_accesses([
        (1, "w", "x"), (2, "w", "x"), (2, "w", "y"), (1, "w", "y"),
    ]), committed={1, 2})
    report = check_serializability(history)
    assert not report.ok
    assert set(report.cycle) == {1, 2}
    assert report.cycle[0] == report.cycle[-1]
    assert report.problems()


def test_serial_history_is_clean():
    history = _History(_accesses([
        (1, "r", "x"), (1, "w", "x"), (2, "r", "x"), (2, "w", "y"),
    ]), committed={1, 2})
    report = check_serializability(history)
    assert report.ok and report.transactions == 2 and report.edges >= 1


def test_uncommitted_transactions_do_not_conflict():
    # The same cycle, but T2 aborted: its accesses are undone, so the
    # schedule is equivalent to T1 alone.
    history = _History(_accesses([
        (1, "w", "x"), (2, "w", "x"), (2, "w", "y"), (1, "w", "y"),
    ]), committed={1})
    assert check_serializability(history).ok


def test_read_write_conflicts_make_edges():
    graph = conflict_graph(_accesses([
        (1, "r", "x"), (2, "w", "x"),   # r1 before w2: 1 -> 2
        (3, "w", "y"), (1, "r", "y"),   # w3 before r1: 3 -> 1
        (2, "r", "z"), (3, "r", "z"),   # reads never conflict
    ]), committed={1, 2, 3})
    assert graph[1] == {2}
    assert graph[3] == {1}
    assert graph[2] == set()


# -- clean runs ---------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["ira", "ira-2lock"])
def test_unmutated_run_passes_every_oracle(algorithm):
    result = run_schedule(TracingPolicy(), algorithm=algorithm,
                          horizon_ms=HORIZON_MS)
    assert result.ok, result.failing()
    assert result.committed > 0
    names = [verdict.name for verdict in result.verdicts]
    assert names == ["serializability", "transparency", "lock_footprint",
                     "recovery_idempotence", "deep_verify", "no_crash"]


# -- mutation soundness -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught_by_its_oracle(name):
    mutation = MUTATIONS[name]()
    result = run_schedule(TracingPolicy(), algorithm=mutation.algorithm,
                          mutation=mutation, horizon_ms=HORIZON_MS)
    assert mutation.triggered, f"{name} never bit on this schedule"
    assert mutation.expected_oracle in result.failing(), (
        f"{name} triggered ({mutation.detail}) but "
        f"{mutation.expected_oracle} stayed green; "
        f"failing={result.failing()}")


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_explore_follows_the_mutations_target(name):
    # No algorithm or lock manager given: run_schedule follows the
    # mutation's own, as the CLI does.
    report = explore(seeds=1, depth=1, mutation_name=name)
    assert any(MUTATIONS[name].expected_oracle in result.failing()
               for result in report.failures), (
        f"{name}: failing={[r.failing() for r in report.failures]}")


def test_third_lock_mutation_only_breaks_the_footprint():
    # The extra lock is harmless to the data: every state oracle stays
    # green, which is exactly why the live monitor must exist.
    mutation = MUTATIONS["third_reorg_lock"]()
    result = run_schedule(TracingPolicy(), algorithm="ira-2lock",
                          mutation=mutation, horizon_ms=HORIZON_MS)
    assert result.failing() == ["lock_footprint"]


# -- individual oracles -------------------------------------------------------

def test_footprint_monitor_counts_distinct_objects():
    # ira-2lock's whole point: never more than two distinct objects.
    result = run_schedule(TracingPolicy(), algorithm="ira-2lock",
                          horizon_ms=HORIZON_MS)
    verdict = {v.name: v for v in result.verdicts}["lock_footprint"]
    assert verdict.ok
    # Basic IRA locks all parents; the monitor records its peak but the
    # paper makes no two-lock claim for it, so no violation either.
    result = run_schedule(TracingPolicy(), algorithm="ira",
                          horizon_ms=HORIZON_MS)
    assert {v.name: v for v in result.verdicts}["lock_footprint"].ok


def test_footprint_monitor_peak_observed():
    db, _ = Database.with_workload(default_workload())
    reorg = db.reorganizer(1, "ira-2lock")
    monitor = db.engine.subscribe(
        LockFootprintMonitor(db.engine, reorg, limit=2))
    db.run(reorg.run(), name="reorg")
    assert monitor.peak == 2
    assert monitor.violations == []


def test_recovery_idempotence_clean_on_quiet_engine():
    db, _ = Database.with_workload(default_workload())
    assert check_recovery_idempotence(db.engine) == []
