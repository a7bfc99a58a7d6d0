"""Chaos-harness smoke tests: crash / recover / resume cycles.

The full 50-point acceptance sweep runs from the CLI
(``python -m repro chaos``); these tests keep a small always-on sweep in
the tier-1 suite so the crash-resume path cannot silently rot.
"""

import gc
import tracemalloc

import pytest

from repro import CompactionPlan, Database, ReorgConfig, WorkloadConfig
from repro.faults import (
    CORRUPTION_KINDS,
    chaos_sweep,
    probe_run_window,
    run_chaos_point,
)
from repro.verify import graph_signature

SMOKE_WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                                mpl=2, seed=13)
SMOKE_REORG = ReorgConfig(checkpoint_every=10)

#: The verdicts of a chaos point that runs to the end, in order.
POINT_VERDICTS = ["crashed", "recovered", "corruption_accounted",
                  "integrity_after_recovery", "integrity_after_resume",
                  "isomorphic", "objects_conserved", "no_remigration"]
#: A corruption point's, in order: three gates join the clean set.
CORRUPTION_VERDICTS = ["crashed", "corruption_injected", "recovered",
                       "corruption_accounted", "integrity_after_recovery",
                       "healed_matches_clean", "integrity_after_resume",
                       "isomorphic", "objects_conserved", "no_remigration",
                       "deep_verify"]


def _names(point):
    return [verdict.name for verdict in point.verdicts]


def test_probe_window_is_deterministic():
    first = probe_run_window("ira", SMOKE_WORKLOAD, SMOKE_REORG)
    second = probe_run_window("ira", SMOKE_WORKLOAD, SMOKE_REORG)
    assert first == second
    start, end = first
    assert 0 <= start < end


def test_graph_signature_invariant_under_reorg():
    db, _ = Database.with_workload(SMOKE_WORKLOAD)
    before = graph_signature(db.engine)
    db.reorganize(1, algorithm="ira", plan=CompactionPlan())
    assert graph_signature(db.engine) == before


def test_chaos_smoke_sweep_ira():
    report = chaos_sweep(points=3, algorithm="ira", workload=SMOKE_WORKLOAD,
                         reorg_config=SMOKE_REORG, seed=13)
    assert len(report.points) == 3
    assert report.all_ok, [p.describe() for p in report.failures]
    assert all(_names(p) == POINT_VERDICTS for p in report.points)
    # At least one point must prove the §4.4 payoff: real pre-crash
    # progress kept, nothing migrated twice.
    assert report.resume_demonstrated


def test_chaos_point_two_lock_variant():
    start, end = probe_run_window("ira-2lock", SMOKE_WORKLOAD, SMOKE_REORG)
    result = run_chaos_point((start + end) / 2, algorithm="ira-2lock",
                             workload=SMOKE_WORKLOAD,
                             reorg_config=SMOKE_REORG, seed=13)
    assert result.ok, result.describe()
    verdicts = {verdict.name: verdict.ok for verdict in result.verdicts}
    assert verdicts["crashed"] and verdicts["recovered"]


def test_crash_without_checkpoints_restarts_fresh():
    no_checkpoints = ReorgConfig(checkpoint_every=0)
    start, end = probe_run_window("ira", SMOKE_WORKLOAD, no_checkpoints)
    result = run_chaos_point((start + end) / 2, algorithm="ira",
                             workload=SMOKE_WORKLOAD,
                             reorg_config=no_checkpoints, seed=13)
    assert result.ok, result.describe()
    assert not result.resumed
    assert not result.completed_before_crash
    # The fresh restart migrated the whole partition again.
    assert result.migrated_by_resume == 170


def test_corruption_smoke_sweep():
    # One point per corruption kind; the full 50-point acceptance sweep
    # runs from the CLI (``python -m repro chaos --corruption all``).
    report = chaos_sweep(points=3, algorithm="ira", workload=SMOKE_WORKLOAD,
                         reorg_config=SMOKE_REORG, seed=13,
                         kinds=CORRUPTION_KINDS)
    assert len(report.points) == 3
    assert {p.corruption for p in report.points} == set(CORRUPTION_KINDS)
    assert report.all_ok, [p.describe() for p in report.failures]
    assert all(_names(p) == CORRUPTION_VERDICTS for p in report.points)
    assert report.no_silent_corruption
    assert all(p.corruptions_injected > 0 for p in report.points)
    summary = report.summary()
    assert summary["silent_corruptions"] == 0
    assert summary["corruption_points"] == 3


#: Traced memory a chaos point may leave allocated once it returns, its
#: result included.  A point that released nothing leaves its launched
#: and recovered databases behind: about 1.3 MiB at this scale, 2.8 MiB
#: with a corruption twin.
LEFT_BEHIND_BOUND_KIB = 512


@pytest.mark.parametrize("corruption",
                         [None, "torn_page", "bit_flip", "torn_log_tail"])
def test_a_chaos_point_leaves_no_database_behind(corruption):
    """With the collector off, as benches run, a point frees every
    database it built: only its verdicts and counts outlive it."""
    start, end = probe_run_window("ira", SMOKE_WORKLOAD, SMOKE_REORG)

    def point():
        return run_chaos_point((start + end) / 2, workload=SMOKE_WORKLOAD,
                               reorg_config=SMOKE_REORG, seed=13,
                               corruption=corruption)
    point()   # warm: the load image, the compiled codecs
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = point()
        left_kib = (tracemalloc.get_traced_memory()[0] - before) / 1024
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert result.ok, result.describe()
    assert left_kib < LEFT_BEHIND_BOUND_KIB, f"{left_kib:.0f} KiB left"
    assert result.recovered_signature is None   # no twin compares it
