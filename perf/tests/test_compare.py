"""``--compare`` verdicts."""

from perf import compare
from perf.metrics import E2E_BY_NAME


def metric(value, q1=None, q3=None, kind="host"):
    return {"value": value, "q1": value if q1 is None else q1,
            "q3": value if q3 is None else q3, "n": 5, "unit": "s",
            "kind": kind}


def result_set(run_s, fail=(0, 100), digest="d", seed=42):
    failed, attempted = fail
    return {"seed": seed, "workloads": {"w": {
        "metrics": {"run_s": run_s,
                    "sim_p50_ms": metric(800.0, kind="sim")},
        "failed": failed, "attempted": attempted,
        "fail_share": failed / attempted, "sim_digest": digest,
        "counts": {"sim.events_per_txn": 29.0}}}}


def test_within_the_bound_is_ok():
    bound = E2E_BY_NAME["run_s"].bound
    assert compare.verdict("run_s", metric(1.0), metric(1.0 + bound / 2)) \
        == "ok"


def test_beyond_the_bound_is_worse_in_the_metrics_own_direction():
    bound = E2E_BY_NAME["run_s"].bound
    assert compare.verdict("run_s", metric(1.0), metric(1.0 + 2 * bound)) \
        == "worse"
    assert compare.verdict("run_s", metric(1.0), metric(0.5)) == "ok"
    # Higher is better for throughput: falling is what counts as worse.
    assert compare.verdict("host_txn_per_s", metric(100.0),
                           metric(50.0)) == "worse"
    assert compare.verdict("host_txn_per_s", metric(100.0),
                           metric(150.0)) == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    wide = metric(1.0, q1=0.7, q3=1.3)
    assert compare.verdict("run_s", wide, metric(1.02)) == "unresolved"
    # ... unless every value of B reads better than every value of A.
    assert compare.verdict("run_s", wide, metric(0.5, 0.45, 0.55)) == "ok"


def test_exit_status(tmp_path, capsys):
    import json
    a = tmp_path / "a.json"
    a.write_text(json.dumps(result_set(metric(1.0))))
    same = tmp_path / "b.json"
    same.write_text(json.dumps(result_set(metric(1.01))))
    slow = tmp_path / "c.json"
    slow.write_text(json.dumps(result_set(metric(2.0))))
    failing = tmp_path / "d.json"
    failing.write_text(json.dumps(result_set(metric(1.0), fail=(1, 100))))
    assert compare.main(str(a), str(same)) == 0
    assert compare.main(str(a), str(slow)) == 1
    assert compare.main(str(a), str(failing)) == 1
    assert "fail_share rose" in capsys.readouterr().out


def test_same_seed_sim_differences_are_called_out():
    a = result_set(metric(1.0))
    b = result_set(metric(1.0), digest="other")
    b["workloads"]["w"]["metrics"]["sim_p50_ms"] = metric(801.0, kind="sim")
    b["workloads"]["w"]["counts"]["sim.events_per_txn"] = 30.0
    text = "\n".join(compare.compare(a, b)[0])
    assert "sim differs at the same seed" in text
    assert "sim_digest differs" in text
    assert "[c] counts differ: sim.events_per_txn" in text
