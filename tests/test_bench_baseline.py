"""Tests for the BENCH.json baseline layer and result determinism."""

import copy
import json

import pytest

from repro.bench import (
    EXPERIMENTS,
    compare_figure,
    figure,
    load_baseline,
    new_baseline,
    run_experiment,
    save_baseline,
)
from repro.bench.baseline import SCHEMA


def _figure(avg=100.0, holds=True):
    return {
        "metrics": {"nr": {"avg_response_ms": avg, "completed": 50}},
        "counters": {"nr": {"events_dispatched": 1000}},
        "holds": holds,
    }


def _baseline(**figures):
    data = new_baseline()
    data["figures"].update(figures)
    return data


class TestCompareFigure:
    def test_identical_run_passes(self):
        fig = _figure()
        baseline = _baseline(**{"table2/quick": copy.deepcopy(fig)})
        assert compare_figure("table2/quick", fig, baseline) == []

    def test_metrics_drift_fails_regardless_of_wall_clock(self):
        """Host cost is neither recorded nor compared: the smallest
        simulated difference is drift, and nothing can excuse it."""
        baseline = _baseline(**{"table2/quick": _figure(avg=100.0)})
        current = _figure(avg=100.001)
        problems = compare_figure("table2/quick", current, baseline)
        assert len(problems) == 1
        assert "drifted" in problems[0]
        assert "'nr'" in problems[0]

    @pytest.mark.parametrize("committed", [True, False])
    def test_verdict_drift_fails_in_either_direction(self, committed):
        """A committed ``holds: false`` is an expectation like any other:
        the run must reproduce it, not merely do no worse."""
        baseline = _baseline(**{"table2/quick": _figure(holds=committed)})
        assert compare_figure("table2/quick", _figure(holds=committed),
                              baseline) == []
        problems = compare_figure("table2/quick",
                                  _figure(holds=not committed), baseline)
        assert len(problems) == 1
        assert "verdict drifted" in problems[0]

    def test_missing_figure_reported(self):
        baseline = _baseline(**{"table2/quick": _figure()})
        problems = compare_figure("mpl/standard", _figure(), baseline)
        assert len(problems) == 1
        assert "no figure 'mpl/standard'" in problems[0]

    def test_counters_drift_fails(self):
        # Kernel events and timers are part of the schedule: a counter
        # diff alone is drift, gated exactly like the metrics.
        fig = _figure()
        baseline = _baseline(**{"table2/quick": copy.deepcopy(fig)})
        fig["counters"]["nr"]["events_dispatched"] += 5
        problems = compare_figure("table2/quick", fig, baseline)
        assert len(problems) == 1
        assert "counters drifted" in problems[0]
        assert "'nr'" in problems[0]


class TestBaselineIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH.json")
        data = _baseline(**{"table2/quick": _figure()})
        save_baseline(path, data)
        assert load_baseline(path) == data

    def test_unknown_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        data = {"schema": "repro-bench/999", "figures": {}}
        save_baseline(path, data)
        with pytest.raises(ValueError, match="unknown baseline schema"):
            load_baseline(path)

    def test_new_baseline_has_current_schema(self):
        assert new_baseline()["schema"] == SCHEMA == "repro-bench/2"

    def test_stale_schema_fails_compare_loudly(self, tmp_path):
        """A schema-1 file (wall-clock blocks, no verdict) handed to
        ``--compare`` must not compare against nothing."""
        from repro.cli import main
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"schema": "repro-bench/1",
                                    "figures": {}}))
        with pytest.raises(ValueError, match="unknown baseline schema"):
            main(["bench", "dist", "--scale", "quick",
                  "--compare", str(path)])

    @pytest.mark.parametrize("content", [
        '{"schema": "repro-bench/999", "figures": {}, "notes": {"x": 1}}',
        '{"schema": "repro-bench/2", "figures": {"table2/st',
    ], ids=["wrong-schema", "truncated"])
    def test_bench_json_never_overwrites_an_unreadable_baseline(
            self, tmp_path, capsys, content):
        """``repro bench --json`` starts a new baseline only when the
        file is missing; anything else keeps its bytes and exits 1."""
        from repro.cli import main
        path = tmp_path / "BENCH.json"
        path.write_text(content)
        code = main(["bench", "dist", "--scale", "quick",
                     "--json", str(path)])
        assert code == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert path.read_text() == content


class TestSeedPinnedDeterminism:
    def test_table2_quick_is_byte_identical_across_runs(self):
        """The determinism contract behind the bench baselines.

        Two fresh in-process runs of the Table 2 figure at the pinned
        workload seed must serialize to *equal* payloads — this is what
        lets ``--compare`` treat any metrics diff as a code-behaviour
        change rather than noise, and what the kernel/storage fast paths
        are required to preserve.
        """
        table2 = EXPERIMENTS["table2"]

        def run():
            return figure(table2, run_experiment(table2, "quick"))

        first, second = run(), run()
        assert first["metrics"] == second["metrics"]
        # The kernel event/timer counts are part of the schedule, hence
        # equally deterministic.
        assert first["counters"] == second["counters"]
