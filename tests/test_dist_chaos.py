"""The distributed chaos sweep."""

from repro.config import DistConfig
from repro.dist import default_scenarios, run_dist_chaos


def _config() -> DistConfig:
    return DistConfig(node_count=3, objects_per_partition=18, seed=11)


def test_default_scenarios_cover_every_protocol_stage():
    full = default_scenarios()
    names = [name for name, _ in full]
    assert len(full) >= 25
    for stage in ("coord-before-prepare", "coord-after-votes",
                  "coord-after-decision-log", "coord-after-commit",
                  "coord-after-decision-send", "part-before-patch",
                  "part-after-patch", "part-after-prepare-log",
                  "part-on-decision"):
        assert any(stage in name for name in names), stage
    assert any(name.startswith("node-kill/") for name in names)
    assert any(name.startswith("link-cut/") for name in names)
    assert any(name.startswith("msg-loss/") for name in names)
    assert len(default_scenarios(quick=True)) < len(full)


def test_chaos_subset_passes_every_gate():
    """One representative of each fault family, gated on the twin."""
    picks = ("tpc-crash/coord-after-commit#1",
             "tpc-crash/part-after-prepare-log#1",
             "node-kill/n1@60",
             "link-cut/0-1@50",
             "msg-loss/0.3@40")
    scenarios = [(name, arm) for name, arm in default_scenarios()
                 if name in picks]
    assert len(scenarios) == len(picks)
    report = run_dist_chaos(config=_config(), scenarios=scenarios)
    assert report.ok, [r.to_dict() for r in report.failures()]
    assert report.passed == len(picks)
    crash_results = [r for r in report.results
                     if r.scenario.startswith(("tpc-crash", "node-kill"))]
    assert all(r.crashes >= 1 for r in crash_results)


def test_chaos_report_flags_a_failing_scenario():
    def sabotage(cluster):
        # Drop every message forever: reorgs with remote parents can
        # never commit, so the run must report not-completed, not hang.
        cluster.net.set_loss(1.0)

    report = run_dist_chaos(config=_config(),
                            scenarios=[("sabotage/all-loss", sabotage)])
    assert not report.ok
    result = report.results[0]
    assert not result.completed and not result.ok
