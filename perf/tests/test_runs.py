"""Determinism and failure accounting, on the smoke-sized workloads."""


import pytest

from perf import adapter, bench, runner
from perf.workloads import BY_NAME


def smoke_rep(name, seed):
    return runner.run_rep(BY_NAME[name].smoke(), seed, 0, calibrate=False)


@pytest.mark.parametrize("name", ["table2_mem", "serve_fleet"])
def test_a_seed_repeats_exactly_and_another_seed_differs(name):
    workload = BY_NAME[name].smoke()
    first, again, other = (smoke_rep(name, 42), smoke_rep(name, 42),
                           smoke_rep(name, 43))
    assert runner.sim_digest([first]) == runner.sim_digest([again])
    assert runner.layer_counts(workload, first) == \
        runner.layer_counts(workload, again)
    assert runner.sim_metrics(workload, [first]) == \
        runner.sim_metrics(workload, [again])
    assert runner.sim_digest([first]) != runner.sim_digest([other])


def test_tracing_does_not_change_simulated_behaviour():
    workload = BY_NAME["crash_recover"].smoke()
    plain = runner.run_rep(workload, 42, 0, calibrate=False)
    traced, tracer, after_arm = runner.traced_rep(workload, 42,
                                                  keep_spans=False)
    assert runner.sim_digest([plain]) == runner.sim_digest([traced])
    assert set(after_arm) == {arm.name for arm in workload.arms}
    assert tracer.counts["wal.records_analyzed"] > 0
    assert not tracer.stack and not tracer._installed


def test_a_failed_check_fails_every_operation_of_its_arm(monkeypatch):
    class Broken:
        ok = False

    monkeypatch.setattr(adapter.Database, "verify_integrity",
                        lambda self: Broken())
    workload = BY_NAME["mvcc_merge"].smoke()
    rep = runner.run_rep(workload, 42, 0, calibrate=False)
    assert rep.attempted > 0 and rep.failed == rep.attempted
    assert any("verify_integrity failed" in p for p in rep.problems)
    result = runner.summarize(workload, [[rep]])
    assert result["correct"] is False
    assert result["fail_share"] == 1.0


def test_an_incorrect_result_makes_the_command_exit_nonzero(monkeypatch,
                                                            capsys):
    bad = {"workload": "table2_mem", "correct": False, "attempted": 10,
           "failed": 10, "fail_share": 1.0, "problems": ["x failed"],
           "metrics": {}, "info": {}, "sim_digest": "", "counts": {}}
    monkeypatch.setattr(bench, "run_child", lambda *a, **k: dict(bad))
    monkeypatch.setattr(bench, "measure_setup",
                        lambda *a, **k: {"value": 1.0, "unit": "s", "q1": 1.0,
                                         "q3": 1.0, "n": 1, "kind": "host"})
    assert bench.main(["--workload", "table2_mem", "--seconds", "1"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 10' in last


def test_the_surface_lists_only_package_level_exports():
    for symbol in adapter.SURFACE:
        module = symbol.rsplit(".", 1)[0]
        assert module.startswith("repro")
        assert not module.endswith(".bench") and module != "repro.cli"
    listing = adapter.surface_listing()
    assert "Transaction.read_refs (txn)" in listing
    assert "repro.Database" in listing


def test_the_last_line_has_exactly_the_contract_keys():
    result = {"workload": "table2_mem", "correct": True, "attempted": 5,
              "failed": 0, "metrics": {"run_s": {"value": 1.5, "unit": "s",
                                                 "q1": 1.4, "q3": 1.6}}}
    line = bench.last_line([result], traced=False, single=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"run_s": {"value": 1.5, "unit": "s"}}
