"""Failure traces replay to the identical failure — including from a
fresh process, which is the property that makes an artifact file a
usable bug report."""

import json
import os
import subprocess
import sys

from repro.explore import (
    MUTATIONS,
    RandomWalkPolicy,
    ReplayPolicy,
    build_artifact,
    explore,
    replay_artifact,
    run_schedule,
)
from repro.explore.explorer import default_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _failing_run():
    """A failing schedule with a non-trivial trace (mutated random walk)."""
    mutation = MUTATIONS["unlogged_poke"]()
    policy = RandomWalkPolicy(seed=5)
    result = run_schedule(policy, mutation=mutation)
    assert not result.ok and result.trace
    return result


def test_replay_reproduces_identical_failure_in_process():
    result = _failing_run()
    again = run_schedule(ReplayPolicy(dict(result.trace)),
                         mutation=MUTATIONS["unlogged_poke"]())
    assert again.trace_hash == result.trace_hash
    assert again.failing() == result.failing()
    assert again.sim_end_ms == result.sim_end_ms
    assert again.committed == result.committed


def test_artifact_replays_identically_in_fresh_process(tmp_path):
    result = _failing_run()
    artifact = build_artifact(dict(result.trace), result,
                              default_workload(), "ira", "unlogged_poke",
                              minimized=False)
    path = tmp_path / "failure.json"
    path.write_text(json.dumps(artifact))

    script = (
        "import json, sys\n"
        "from repro.explore import replay_artifact\n"
        "r = replay_artifact(sys.argv[1])\n"
        "print(json.dumps({'failing': r.failing(),\n"
        "                  'sim_end_ms': r.sim_end_ms,\n"
        "                  'trace_hash': r.trace_hash,\n"
        "                  'triggered': r.mutation_triggered}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True, env=env,
                          cwd=REPO_ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    replayed = json.loads(proc.stdout.strip().splitlines()[-1])
    assert replayed["failing"] == result.failing()
    assert replayed["sim_end_ms"] == result.sim_end_ms
    assert replayed["trace_hash"] == result.trace_hash
    assert replayed["triggered"] is True


def test_explore_emits_artifact_that_replays(tmp_path):
    out = tmp_path / "artifacts"
    report = explore(seeds=2, depth=1, mutation_name="unlogged_poke",
                     out_dir=str(out), minimize_budget=4)
    assert report.failures and report.artifacts
    path = report.artifacts[0]
    data = json.loads(open(path).read())
    assert data["mutation"] == "unlogged_poke"
    replayed = replay_artifact(path)
    assert set(data["failure"]["oracles"]) <= set(replayed.failing())
    assert replayed.sim_end_ms == data["failure"]["sim_end_ms"]
    assert replayed.trace_hash == data["failure"]["trace_hash"]
