"""Tests for the benchmark harness itself."""

import ast
import dataclasses
import pathlib

import pytest

from repro.bench import (
    EXPERIMENTS,
    SCALES,
    Arm,
    Clause,
    base_workload,
    render,
    run_arm,
    run_experiment,
)
from repro.bench.harness import PAPER_ARMS

QUICK = SCALES["quick"]
#: One 85-object cluster per partition, two threads: a run takes ~50 ms.
TINY = dataclasses.replace(QUICK, objects_per_partition=85)
TABLE2_TINY = dataclasses.replace(
    EXPERIMENTS["table2"], scales={"tiny": TINY}, workload={"mpl": 2})


def test_scales_are_wellformed():
    for name, scale in SCALES.items():
        assert scale.name == name
        assert scale.objects_per_partition % 85 == 0
        assert len(scale.mpl_points) >= 2
        assert all(size % 85 == 0 for size in scale.partition_size_points)


def test_base_workload_uses_scale():
    workload = base_workload(QUICK, mpl=7)
    assert workload.num_partitions == QUICK.num_partitions
    assert workload.objects_per_partition == QUICK.objects_per_partition
    assert workload.mpl == 7


def test_run_arm_nr_and_reorg():
    workload = base_workload(TINY, mpl=2)
    nr = run_arm(Arm("nr"), workload, horizon_ms=1000.0)
    assert nr.algorithm == "nr"
    assert nr.metrics.window_ms == pytest.approx(1000.0)
    ira = run_arm(Arm("ira", "ira"), workload)
    assert ira.metrics.reorg_stats.objects_migrated == 85
    assert ira.overrides["partition_objects"] == 85


def test_arm_reorg_override_reaches_the_reorganizer():
    workload = base_workload(TINY, mpl=2)
    single = run_arm(Arm("ira", "ira"), workload)
    batched = run_arm(
        Arm("batched", "ira", reorg={"migration_batch_size": 16}), workload)
    assert (batched.metrics.reorg_stats.max_locks_held
            > single.metrics.reorg_stats.max_locks_held)
    assert batched.overrides["log_flushes"] < single.overrides["log_flushes"]


def test_run_experiment_produces_the_paper_arms():
    arms = run_experiment(TABLE2_TINY, "tiny")[None]
    assert list(arms) == [arm.name for arm in PAPER_ARMS] \
        == ["nr", "ira", "pqr"]
    for point in arms.values():
        assert point.metrics.completed >= 0
    # The no-reorg twin is measured over the reorganizing arm's window.
    assert arms["nr"].metrics.window_ms == \
        pytest.approx(arms["ira"].metrics.window_ms)


def test_render_table2_includes_paper_reference():
    text = render(TABLE2_TINY, run_experiment(TABLE2_TINY, "tiny"))
    assert "NR" in text and "IRA" in text and "PQR" in text
    assert "paper" in text


def test_verdict_line_names_each_failing_clause():
    forced = dataclasses.replace(TABLE2_TINY, verdict=lambda rows: [
        Clause("fine", True, (1, 2)),
        Clause("a.x >= 2 x b.x", False, (3.0, 2.0)),
        Clause("curve rises", False, ([2.5, 1.0],))])
    rows = run_experiment(forced, "tiny")
    assert [clause.text for clause in forced.failures(rows)] == \
        ["a.x >= 2 x b.x", "curve rises"]
    assert render(forced, rows).endswith(
        f"\nDOES NOT HOLD: {forced.claim}\n"
        "  fails: a.x >= 2 x b.x: 3 vs 2\n"
        "  fails: curve rises: [2.5, 1]")


# -- one harness ---------------------------------------------------------------
#
# ``repro.bench.EXPERIMENTS`` is the only way an experiment is declared,
# run, rendered and judged, and ``perf/`` the only owner of host cost.
# These guards keep a second harness, a second knob and a second clock
# from growing back.

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _imported_modules(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_harness_reads_no_clock_no_profiler_and_no_environment():
    sources = sorted((ROOT / "src/repro/bench").glob("*.py")) \
        + [ROOT / "src/repro/cli.py"]
    assert len(sources) == 5
    for path in sources:
        imported = set(_imported_modules(path))
        assert not imported & {"time", "cProfile", "pstats"}, path
        assert "environ" not in path.read_text(), path


def test_one_committed_baseline_and_no_second_suite():
    assert not (ROOT / "benchmarks").exists()
    assert (ROOT / "BENCH.json").is_file()
    # ``BENCHMARK.json`` is the perf pipeline's manifest, not a baseline.
    assert [path.name for path in ROOT.glob("BENCH_*.json")] == []
