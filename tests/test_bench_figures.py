"""Every registered experiment with a committed baseline, run once at
quick scale: the simulated metrics and kernel counters reproduce the
committed ``BENCH_*.json`` exactly, the experiment's acceptance verdict
holds, and the payload has the one uniform shape.

CI runs this module under several ``PYTHONHASHSEED`` values: the
committed numbers must not depend on hash order.
"""

import functools

import pytest

from repro.bench import (EXPERIMENTS, figure_payload, load_baseline, render,
                         run_experiment)
from repro.bench.harness import keyed_points

BASELINED = [name for name, experiment in EXPERIMENTS.items()
             if experiment.baselines]


@functools.lru_cache(maxsize=None)
def figure(name):
    """One quick run of ``name``, shared by every test of this module."""
    experiment = EXPERIMENTS[name]
    rows = run_experiment(experiment, "quick")
    payload = figure_payload(keyed_points(experiment, rows), 0.0)
    return experiment, rows, payload, render(experiment, rows)


def test_every_extension_experiment_is_baselined():
    assert BASELINED == ["table2", "clustering", "scale", "dist", "mvcc",
                         "locks"]


@pytest.mark.parametrize("name", BASELINED)
def test_figure_reproduces_committed_baseline(name):
    experiment, rows, payload, text = figure(name)
    for path in experiment.baselines:
        committed = load_baseline(path)["figures"][f"{name}/quick"]
        assert payload["metrics"] == committed["metrics"], path
        assert payload["counters"] == committed["counters"], path
    if experiment.verdict is not None:
        assert experiment.verdict(rows), experiment.claim
        assert f"holds: {experiment.claim}" in text


@pytest.mark.parametrize("name", BASELINED)
def test_payload_has_the_uniform_shape(name):
    experiment, rows, payload, text = figure(name)
    assert set(payload) == {"wall_clock_s", "metrics", "counters"}
    arms = [arm.name for arm in experiment.arms]
    levels = []
    if experiment.sweep is not None:
        levels.append([experiment.x_key(x)
                       for x in experiment.points("quick")])
    if len(arms) > 1:
        levels.append(arms)

    def check(metrics, counters, depth):
        if depth == len(levels):
            # A leaf: one run's summary beside its kernel counters.
            assert isinstance(metrics, dict) and metrics
            assert all(isinstance(v, int) for v in counters.values())
            return
        assert list(metrics) == list(counters) == levels[depth]
        for key in metrics:
            check(metrics[key], counters[key], depth + 1)

    check(payload["metrics"], payload["counters"], 0)
    assert text.startswith(experiment.title)
    for arm in arms if len(arms) > 1 else ():
        assert arm.upper() in text


def test_governor_intervenes_at_every_pool_width():
    """The governed arm's lower interference (the verdict) is the
    governor's doing: it breached its SLOs and paced or paused."""
    rows = figure("scale")[1]
    for servers, arms in rows.items():
        governed = arms["fleet-gov"]
        assert governed.overrides["servers"] == servers
        assert governed.overrides["governor_breaches"] > 0
        assert (governed.overrides["governor_paced"] > 0
                or governed.overrides["governor_paused_ms"] > 0)
        assert arms["fleet"].overrides["partitions_reorganized"] == 2


def test_dist_curve_shape():
    _, rows, payload, text = figure("dist")
    by_label = payload["metrics"]
    base = by_label["single-node"]
    assert base["tpc_rounds"] == 0 and base["remote_patches"] == 0
    assert by_label["remote=0"]["tpc_rounds"] == 0
    # 2PC cost appears with remote parents and grows off the low end.
    assert by_label["remote=0.1"]["reorg_ms_mean"] > base["reorg_ms_mean"]
    assert (by_label["remote=0.25"]["reorg_ms_mean"]
            >= by_label["remote=0.1"]["reorg_ms_mean"])
    assert (by_label["remote=1"]["remote_patches"]
            > by_label["remote=0.25"]["remote_patches"])
    assert "single-node" in text and "1.00" in text


def test_hier_lock_table_peaks_below_flat_at_top_mpl():
    _, rows, _, text = figure("locks")
    arms = rows[max(rows)]
    peak = {name: point.metrics.locks["table_peak"]
            for name, point in arms.items()}
    assert peak["hier-relaxed"] < peak["hier"] < peak["flat"]
    assert arms["flat"].metrics.locks["escalations"] == 0
    assert arms["hier"].metrics.locks["escalations"] > 0
    assert "Lock managers under on-line reorganization" in text
