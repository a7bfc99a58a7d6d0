"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_runs_and_reports(capsys):
    code = main(["demo", "--partitions", "2", "--objects", "170",
                 "--mpl", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "objects migrated     170" in out
    assert "integrity: OK" in out


def test_demo_algorithm_choices(capsys):
    code = main(["demo", "--algorithm", "pqr", "--partitions", "2",
                 "--objects", "85", "--mpl", "2"])
    assert code == 0
    assert "integrity: OK" in capsys.readouterr().out


def test_inspect_prints_layout(capsys):
    code = main(["inspect", "--partitions", "2", "--objects", "170",
                 "--mpl", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "partition" in out
    assert "integrity: OK" in out


def test_bench_table2_quick(capsys):
    """The paper's tail claim does not hold (EXPERIMENTS.md) — at quick
    scale either — and the exit status says so."""
    code = main(["bench", "table2", "--scale", "quick"])
    assert code == 1
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "PQR" in out
    assert "DOES NOT HOLD" in out
    assert "fails: pqr.max_response_ms >= 1.4 x ira.max_response_ms" in out


def test_invalid_algorithm_rejected():
    with pytest.raises(SystemExit):
        main(["demo", "--algorithm", "nope"])


SMALL_SCALE = ["--partitions", "2", "--objects", "170", "--mpl", "2"]


def test_verify_clean_store_exits_zero(capsys):
    code = main(["verify"] + SMALL_SCALE)
    assert code == 0
    out = capsys.readouterr().out
    assert "VERDICT: CLEAN" in out


def test_verify_corrupt_page_exits_nonzero(capsys):
    code = main(["verify", "--corrupt", "page", "--skip-recovery"]
                + SMALL_SCALE)
    assert code == 1
    out = capsys.readouterr().out
    assert "VERDICT: CORRUPT" in out


def test_verify_corrupt_snapshot_exits_nonzero(capsys):
    code = main(["verify", "--corrupt", "snapshot", "--skip-recovery"]
                + SMALL_SCALE)
    assert code == 1
    assert "fails its recorded checksum" in capsys.readouterr().out


def test_verify_corrupt_log_exits_nonzero(capsys):
    code = main(["verify", "--corrupt", "log", "--skip-recovery"]
                + SMALL_SCALE)
    assert code == 1
    assert "VERDICT: CORRUPT" in capsys.readouterr().out


def test_chaos_single_corruption_point(capsys):
    code = main(["chaos", "--crash-at", "1500", "--corruption",
                 "torn_log_tail"] + SMALL_SCALE)
    assert code == 0
    assert "torn_log_tail" in capsys.readouterr().out


# -- the bench exit status -------------------------------------------------------
#
# One rule: the run equals the committed figure, verdict included.  With
# ``--compare`` the exit status is 0 exactly when simulated metrics, kernel
# counters and ``holds`` all match ``BENCH.json`` — a committed ``holds:
# false`` (table2) is reproduced, not forgiven; a bare run exits 1 under a
# ``DOES NOT HOLD`` line.  The tier-1 and ``paper-figures`` CI jobs lean on
# both directions.

def _edited_baseline(tmp_path, edit):
    import json

    with open("BENCH.json") as handle:
        data = json.load(handle)
    edit(data["figures"]["table2/quick"])
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_bench_compare_gate_pass_and_fail(tmp_path, capsys):
    # Identical to the committed figure -> exit 0, although the verdict
    # (committed as not holding) does not hold.
    code = main(["bench", "table2", "--scale", "quick",
                 "--compare", "BENCH.json"])
    assert code == 0
    captured = capsys.readouterr()
    assert "DOES NOT HOLD" in captured.out
    assert "identical to BENCH.json" in captured.err

    # One simulated metric edited -> exit 1.
    def drift(figure):
        figure["metrics"]["ira"]["throughput_tps"] = -1.0
    code = main(["bench", "table2", "--scale", "quick",
                 "--compare", _edited_baseline(tmp_path, drift)])
    assert code == 1
    assert "metrics drifted" in capsys.readouterr().err


def test_bench_compare_fails_when_the_committed_verdict_flips(tmp_path,
                                                              capsys):
    def flip(figure):
        figure["holds"] = not figure["holds"]
    code = main(["bench", "table2", "--scale", "quick",
                 "--compare", _edited_baseline(tmp_path, flip)])
    assert code == 1
    assert "verdict drifted" in capsys.readouterr().err


def test_bare_bench_exits_nonzero_when_the_verdict_does_not_hold(
        monkeypatch, capsys):
    import dataclasses

    from repro.bench import EXPERIMENTS, Clause

    assert main(["bench", "dist", "--scale", "quick"]) == 0
    assert "\nholds: " in capsys.readouterr().out
    monkeypatch.setitem(EXPERIMENTS, "dist", dataclasses.replace(
        EXPERIMENTS["dist"],
        verdict=lambda rows: [Clause("forced", False, (0,))]))
    assert main(["bench", "dist", "--scale", "quick"]) == 1
    out = capsys.readouterr().out
    assert "DOES NOT HOLD" in out and "fails: forced: 0" in out
