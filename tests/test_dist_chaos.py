"""The distributed chaos sweep."""

from repro.config import DistConfig
from repro.dist import default_scenarios, run_dist_chaos
from repro.faults import FaultPlan


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
    # Every fault but the 2PC stage crash is a FaultPlan value.
    for name, fault in full:
        assert isinstance(fault, FaultPlan) != name.startswith("tpc-crash/")
    assert len(default_scenarios(quick=True)) < len(full)


def test_chaos_subset_passes_every_gate():
    """One representative of each fault family, gated on the twin."""
    picks = ("tpc-crash/coord-after-commit#1",
             "tpc-crash/part-after-prepare-log#1",
             "node-kill/n1@60",
             "link-cut/0-1@50",
             "msg-loss/0.3@40")
    scenarios = [(name, fault) for name, fault in default_scenarios()
                 if name in picks]
    assert len(scenarios) == len(picks)
    results = run_dist_chaos(config=_config(), scenarios=scenarios)
    assert len(results) == len(picks)
    for result in results:
        assert result.ok, (result.scenario, result.verdicts)
        assert [v.name for v in result.verdicts] == [
            "fired", "completed", "deep_verify", "transparency",
            "twin_identical"]
    crash_results = [r for r in results
                     if r.scenario.startswith(("tpc-crash", "node-kill"))]
    assert all(r.crashes >= 1 for r in crash_results)


def test_chaos_report_flags_a_failing_scenario():
    def sabotage(cluster):
        # Drop every message forever: reorgs with remote parents can
        # never commit, so the run must report not-completed, not hang.
        cluster.net.set_loss(1.0)

    [result] = run_dist_chaos(config=_config(),
                              scenarios=[("sabotage/all-loss", sabotage)])
    assert not result.ok
    assert "completed" in result.failing()
