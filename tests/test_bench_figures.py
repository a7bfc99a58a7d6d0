"""Every registered experiment, run once at quick scale: the figure —
simulated metrics, kernel counters and whether the verdict holds —
equals the committed ``BENCH.json`` exactly, and has the one uniform
shape.

CI runs this module under several ``PYTHONHASHSEED`` values: the
committed numbers must not depend on hash order.
"""

import functools

import pytest

from repro.bench import (EXPERIMENTS, PAPER_EXPERIMENTS, figure,
                         load_baseline, render, run_experiment)

COMMITTED = load_baseline("BENCH.json")["figures"]

#: Committed figures whose verdict does not hold.  ``table2/standard`` is
#: the paper's headline tail claim (EXPERIMENTS.md, "Standard-scale
#: verdicts"); the quick databases are too small for the others' shapes.
DOES_NOT_HOLD = {
    "table2/standard", "table2/quick", "partition-size/quick",
    "update-prob/quick", "partition-count/quick", "short-locks/quick",
    "two-lock/quick"}


@functools.lru_cache(maxsize=None)
def quick(name):
    """One quick run of ``name``, shared by every test of this module."""
    experiment = EXPERIMENTS[name]
    rows = run_experiment(experiment, "quick")
    return (experiment, rows, figure(experiment, rows),
            render(experiment, rows))


def test_every_extension_experiment_is_baselined():
    """Every entry of the registry — paper and extension — has a quick
    figure, the paper's a standard one too, and nothing else is there."""
    expected = {f"{name}/quick" for name in EXPERIMENTS} \
        | {f"{name}/standard" for name in PAPER_EXPERIMENTS}
    assert set(COMMITTED) == expected
    assert {key for key, committed in COMMITTED.items()
            if not committed["holds"]} == DOES_NOT_HOLD


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_figure_reproduces_committed_baseline(name):
    experiment, rows, payload, text = quick(name)
    assert payload == COMMITTED[f"{name}/quick"]
    failed = experiment.failures(rows)
    assert payload["holds"] == (not failed)
    if failed:
        assert f"DOES NOT HOLD: {experiment.claim}" in text
        for clause in failed:
            assert f"fails: {clause.describe()}" in text
    else:
        assert f"holds: {experiment.claim}" in text


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_payload_has_the_uniform_shape(name):
    experiment, rows, payload, text = quick(name)
    assert set(payload) == {"metrics", "counters", "holds"}
    assert isinstance(payload["holds"], bool)
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
    rows = quick("scale")[1]
    for servers, arms in rows.items():
        governed = arms["fleet-gov"]
        assert governed.overrides["servers"] == servers
        assert governed.overrides["governor_breaches"] > 0
        assert (governed.overrides["governor_paced"] > 0
                or governed.overrides["governor_paused_ms"] > 0)
        assert arms["fleet"].overrides["partitions_reorganized"] == 2


def test_dist_curve_shape():
    _, rows, payload, text = quick("dist")
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
    _, rows, _, text = quick("locks")
    arms = rows[max(rows)]
    peak = {name: point.metrics.locks["table_peak"]
            for name, point in arms.items()}
    assert peak["hier-relaxed"] < peak["hier"] < peak["flat"]
    assert arms["flat"].metrics.locks["escalations"] == 0
    assert arms["hier"].metrics.locks["escalations"] > 0
    assert "Lock managers under on-line reorganization" in text


def test_equal_duration_measures_pqr_over_iras_full_window():
    """§5.3.4's PQR arm is a *reorganizing* twin: it runs IRA's whole
    window — the no-reorg cap is an NR-only economy — and finishes its
    own reorganization well inside it."""
    arms = quick("equal-duration")[1][None]
    ira, pqr = arms["ira"].metrics, arms["pqr"].metrics
    assert pqr.window_ms == pytest.approx(ira.window_ms)
    assert ira.window_ms == pytest.approx(ira.reorg_duration_ms)
    assert pqr.reorg_duration_ms < ira.window_ms
    assert pqr.reorg_stats.objects_migrated == 340


def test_a_failing_clause_is_named_with_its_numbers():
    """The table2 tail clause, which fails at quick scale too."""
    text = quick("table2")[3]
    ira, pqr = (quick("table2")[1][None][name].metrics
                for name in ("ira", "pqr"))
    assert (f"  fails: pqr.max_response_ms >= 1.4 x ira.max_response_ms: "
            f"{pqr.max_response_ms:.6g} vs {ira.max_response_ms:.6g}") in text
