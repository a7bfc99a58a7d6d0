"""The locks experiment's arms (``repro bench locks``; the full figure
is pinned in ``test_bench_figures.py``), the hierarchical CLI wiring,
and the replayable-artifact path for the hierarchical planted bugs."""

import json

import pytest

from repro.bench import EXPERIMENTS, SCALES, base_workload, run_arm
from repro.cli import main
from repro.explore import MUTATIONS, explore, replay_artifact

LOCKS = EXPERIMENTS["locks"]


def run_locks_point(arm, workload):
    """One arm at one MPL: the point and its lock counters."""
    point = run_arm(LOCKS.arm(arm), workload)
    return point, point.metrics.locks


def test_locks_point_reports_counters_for_every_arm():
    workload = base_workload(SCALES["quick"], mpl=4)
    results = {arm.name: run_locks_point(arm.name, workload)
               for arm in LOCKS.arms}
    for arm, (point, counters) in results.items():
        assert point.metrics.completed > 0, arm
        assert counters["acquires"] > 0, arm
        assert counters["table_peak"] > 0, arm
    assert results["flat"][1]["manager"] == "flat"
    assert results["hier"][1]["manager"] == "hier"
    # The flat arm never escalates; the hierarchical arms can.
    assert results["flat"][1]["escalations"] == 0
    # The point of the exercise: the scan-heavy mix makes the flat
    # manager's lock table strictly larger than the hierarchical one's.
    assert results["hier"][1]["table_peak"] < \
        results["flat"][1]["table_peak"]
    # Every arm carries its counters in the pinned metrics summary.
    assert results["flat"][0].metrics.summary()["locks"]["manager"] == "flat"
    assert results["hier"][0].metrics.summary()["locks"]["manager"] == "hier"


def test_relaxed_arm_differs_from_strict():
    workload = base_workload(SCALES["quick"], mpl=4)
    _, strict = run_locks_point("hier", workload)
    _, relaxed = run_locks_point("hier-relaxed", workload)
    # Short-duration read locks (§4.1/§6) shrink the table further.
    assert relaxed["table_peak"] < strict["table_peak"]


def test_cli_demo_hier_locks(capsys):
    code = main(["demo", "--locks", "hier", "--partitions", "2",
                 "--objects", "170", "--mpl", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "integrity: OK" in out
    assert "lock manager         hier" in out


@pytest.mark.parametrize("name", ["escalate_over_conflict",
                                  "missing_ancestor_intent"])
def test_hier_mutation_artifact_replays(tmp_path, name):
    out = tmp_path / "artifacts"
    report = explore(seeds=2, depth=1, mutation_name=name,
                     out_dir=str(out), minimize_budget=4)
    assert report.failures and report.artifacts
    data = json.load(open(report.artifacts[0]))
    assert data["mutation"] == name
    assert data["locks"] == "hier"
    assert data["strict"] is True
    result = replay_artifact(report.artifacts[0])
    assert "lock_hierarchy" in result.failing()
    assert result.mutation_triggered


def test_cli_explore_follows_mutation_lock_manager(capsys):
    assert MUTATIONS["escalate_over_conflict"].locks == "hier"
    code = main(["explore", "--seeds", "1", "--depth", "1",
                 "--mutation", "escalate_over_conflict"])
    assert code == 0
    assert "caught by lock_hierarchy" in capsys.readouterr().out
