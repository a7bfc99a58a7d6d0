"""Tests for the clustering experiment, its metrics plumbing and CLI."""

import dataclasses

from repro.bench import EXPERIMENTS, run_experiment
from repro.cli import main

CLUSTERING = EXPERIMENTS["clustering"]

#: A sub-quick scale so one arm runs in well under a second.
QUICK = CLUSTERING.scales["quick"]
TINY = dataclasses.replace(
    QUICK, workload=QUICK.workload.copy(objects_per_partition=170, mpl=4),
    buffer_pool_pages=4, window_ms=4_000.0)


def run_clustering_arm(arm, scale):
    """One arm of the clustering experiment at an injected scale."""
    experiment = dataclasses.replace(
        CLUSTERING, arms=(CLUSTERING.arm(arm),), scales={"tiny": scale})
    return run_experiment(experiment, "tiny")[None][arm]


def test_arm_reports_windowed_buffer_stats():
    point = run_clustering_arm("nr", TINY)
    metrics = point.metrics
    assert metrics.buffer is not None
    assert metrics.buffer["misses"] > 0
    assert 0.0 < metrics.buffer_hit_ratio < 1.0
    assert metrics.pages_fetched_per_txn > 0.0
    summary = metrics.summary()
    assert summary["buffer"]["hit_ratio"] == round(
        metrics.buffer_hit_ratio, 4)
    assert "pages_fetched_per_txn" in summary["buffer"]


def test_reorg_arms_record_migration_counts():
    point = run_clustering_arm("cluster", TINY)
    assert point.overrides["objects_migrated"] == 170
    assert point.overrides["reorg_duration_ms"] > 0


def test_arm_is_deterministic():
    first = run_clustering_arm("cluster", TINY)
    second = run_clustering_arm("cluster", TINY)
    assert first.metrics.summary() == second.metrics.summary()
    assert first.counters == second.counters


def test_memory_resident_summaries_have_no_buffer_key():
    """The memory-resident figures (table2 etc.) must not grow a buffer
    section."""
    from repro.bench import Arm, run_arm
    from repro.config import WorkloadConfig
    point = run_arm(Arm("nr"), WorkloadConfig(num_partitions=2,
                                              objects_per_partition=170,
                                              mpl=2, seed=7),
                    horizon_ms=2_000.0)
    assert point.metrics.buffer is None
    assert "buffer" not in point.metrics.summary()


# -- CLI ---------------------------------------------------------------------


def test_cli_cluster_traces_and_recommends(capsys):
    code = main(["cluster", "--partitions", "2", "--objects", "170",
                 "--mpl", "2", "--trace-ms", "3000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "top 8 hot objects" in out
    assert "advisor ranking" in out
    assert "recommendation: reorganize partition" in out
    assert "policy 'dstc'" in out


def test_cli_inspect_pages_shows_co_residency(capsys):
    code = main(["inspect", "--partitions", "2", "--objects", "85",
                 "--pages", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "co-resident objects" in out
    assert "1:0:0" in out


def test_cli_inspect_pages_unknown_partition(capsys):
    code = main(["inspect", "--partitions", "2", "--objects", "85",
                 "--pages", "42"])
    assert code == 1
