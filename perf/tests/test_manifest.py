"""``BENCHMARK.json`` obeys the driver's format and matches the catalogue."""

import json
import os
import re

from perf import metrics, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_top_level_keys_and_limits():
    data = manifest()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert isinstance(data["run_seconds"], int)
    assert 1 <= data["run_seconds"] <= 60
    assert 1 <= len(data["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in data["command"])
    assert 1 <= len(data["paths"]) <= 16
    for path in data["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    # The command names no file outside ``paths``.
    script = data["command"][1]
    assert any(script.startswith(path.rstrip("/") + "/")
               for path in data["paths"])


def test_workloads_match_the_table():
    listed = manifest()["workloads"]
    assert 2 <= len(listed) <= 8
    assert [w["name"] for w in listed] == [w.name for w in workloads.WORKLOADS]
    for entry, workload in zip(listed, workloads.WORKLOADS):
        assert set(entry) == {"name", "why"}
        assert NAME.match(entry["name"])
        assert entry["why"] == workload.why
        # One line, one sentence's worth, and actually a reason.
        assert "\n" not in entry["why"] and 20 <= len(entry["why"]) <= 200


def test_end_to_end_matches_the_catalogue():
    listed = manifest()["end_to_end"]
    assert 1 <= len(listed) <= 16
    assert listed == metrics.manifest_entries()["end_to_end"]
    for entry in listed:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_matches_the_catalogue():
    listed = manifest()["per_layer"]
    assert 1 <= len(listed) <= 128
    assert listed == metrics.manifest_entries()["per_layer"]
    for entry in listed:
        assert set(entry) == {"name", "unit", "better"}
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")


def test_names_are_used_once():
    data = manifest()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    names += [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))


def test_every_prediction_names_a_real_metric_and_workload():
    for spec in metrics.PER_LAYER:
        assert spec.source in ("c", "t", "m")
        for metric, workload in spec.moves:
            assert metric in metrics.E2E_BY_NAME, (spec.name, metric)
            assert workload in workloads.BY_NAME, (spec.name, workload)


def test_every_workload_runs_its_primary_arm_first():
    for workload in workloads.WORKLOADS:
        assert workload.arms[0].role == "primary"
        assert workload.baseline.algorithm is None
        assert workload.variants >= 1
