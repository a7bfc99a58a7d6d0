"""``repro bench scale``: structure and baseline wiring.

The heavy acceptance run (quick sweep, governed-vs-ungoverned verdict,
exact match with the committed ``BENCH.json``) lives in
``test_bench_figures.py``; here a tiny injected scale keeps the serve
protocol itself honest, and the committed baseline is checked for shape.
"""

import dataclasses

from repro.bench import EXPERIMENTS, load_baseline, render, run_experiment
from repro.bench.experiments import interference_pct

SCALE = EXPERIMENTS["scale"]
SCALE_ARMS = tuple(arm.name for arm in SCALE.arms)

QUICK = SCALE.scales["quick"]
TINY = dataclasses.replace(
    SCALE, scales={"tiny": dataclasses.replace(
        QUICK, server_points=(4,),
        workload=QUICK.workload.copy(objects_per_partition=170),
        serve=QUICK.serve.copy(arrival_rate_tps=15.0, flash_multiplier=4.0,
                               flash_start_ms=1_500.0,
                               flash_duration_ms=1_500.0,
                               duration_ms=4_000.0),
        fleet_partitions=1)})


def test_tiny_sweep_structure_and_formatting():
    rows = run_experiment(TINY, "tiny")
    assert set(rows) == {4}
    assert set(rows[4]) == set(SCALE_ARMS)
    for arm in SCALE_ARMS:
        point = rows[4][arm]
        assert point.metrics.arrivals > 0
        assert point.overrides["servers"] == 4
        summary = point.metrics.summary()
        assert summary["algorithm"] == arm
        assert "shed_rate" in summary and "p99_response_ms" in summary
    assert rows[4]["fleet"].overrides["partitions_reorganized"] == 1
    assert "governor_breaches" in rows[4]["fleet-gov"].overrides
    text = render(TINY, rows)
    assert "tput(tps)" in text
    assert "interference(%)" in text
    assert TINY.claim in text
    # interference_pct is consistent with the recorded metrics.
    base = rows[4]["nr"].metrics.p99_response_ms
    fleet = rows[4]["fleet"].metrics.p99_response_ms
    assert interference_pct(rows[4]["fleet"], rows[4]) == \
        (fleet - base) / base * 100.0


def test_scale_point_is_deterministic():
    fleet_only = dataclasses.replace(TINY, arms=(TINY.arm("fleet"),))
    first = run_experiment(fleet_only, "tiny")[4]["fleet"]
    second = run_experiment(fleet_only, "tiny")[4]["fleet"]
    assert first.metrics.summary() == second.metrics.summary()


def test_committed_baseline_has_the_quick_figure():
    figure = load_baseline("BENCH.json")["figures"]["scale/quick"]
    assert figure["holds"] is True
    points = SCALE.points("quick")
    assert set(figure["metrics"]) == {str(p) for p in points}
    for servers in points:
        arms = figure["metrics"][str(servers)]
        assert set(arms) == set(SCALE_ARMS)
        for arm in SCALE_ARMS:
            assert "p99_response_ms" in arms[arm]
            assert "shed_rate" in arms[arm]
