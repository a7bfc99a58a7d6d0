"""Benchmark baselines: the ``BENCH_<n>.json`` files.

A baseline records, per *figure* (an experiment at a scale, keyed
``"<experiment>/<scale>"``, e.g. ``"table2/standard"``):

* ``wall_clock_s``   — real (host) seconds the figure took to compute;
* ``metrics``        — the simulated result summaries.  These are
  deterministic at a fixed seed, so a baseline also pins the *simulated*
  outcome byte-for-byte: any diff here is a behaviour change, not noise;
* ``counters``       — kernel counters (events dispatched, timers
  scheduled/cancelled, heap peak) per algorithm run: part of the
  schedule, so pinned exactly like the metrics.

``repro bench <experiment> --json FILE`` writes one; ``--compare FILE``
checks the current run against a committed baseline and fails the
process on any metrics/counters drift or a wall-clock regression beyond
``--max-regress`` percent.  Wall-clock entries under ``pre_pr``
are measurements of the tree *before* an optimization PR, kept in the
same file so the speedup claim stays auditable.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

SCHEMA = "repro-bench/1"


def figure_payload(points, wall_clock_s: float) -> Dict[str, object]:
    """Serializable record of one figure run.

    ``points`` nests :class:`BenchPoint`s under the figure's keys — arm
    name (``run_three_way`` output), or sweep point then arm; ``metrics``
    and ``counters`` mirror that nesting.
    """
    def tree(node, leaf):
        if isinstance(node, dict):
            return {str(key): tree(child, leaf)
                    for key, child in node.items()}
        return leaf(node)

    return {
        "wall_clock_s": round(wall_clock_s, 3),
        "metrics": tree(points, lambda point: point.metrics.summary()),
        "counters": tree(points, lambda point: point.counters),
    }


def new_baseline() -> Dict[str, object]:
    return {"schema": SCHEMA, "figures": {}}


def load_baseline(path: str) -> Dict[str, object]:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unknown baseline schema {data.get('schema')!r} "
            f"(expected {SCHEMA!r})")
    return data


def save_baseline(path: str, data: Dict[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare_figure(figure_key: str, current: Dict[str, object],
                   baseline: Dict[str, object],
                   max_regress_pct: float,
                   check_metrics: bool = True) -> List[str]:
    """Problems comparing one current figure against a baseline file.

    * wall-clock: fails when the current run is more than
      ``max_regress_pct`` percent slower than the baseline figure;
    * simulated metrics and kernel counters: fail on *any* difference
      (same seed, same code must mean the same simulated numbers and the
      same schedule — drift is a bug, and kernel optimizations are
      required to be result-preserving).
    """
    problems: List[str] = []
    figures = baseline.get("figures", {})
    base = figures.get(figure_key)
    if base is None:
        return [f"baseline has no figure {figure_key!r} "
                f"(has: {sorted(figures)})"]
    base_wall = base["wall_clock_s"]
    wall = current["wall_clock_s"]
    limit = base_wall * (1.0 + max_regress_pct / 100.0)
    if wall > limit:
        problems.append(
            f"{figure_key}: wall-clock regression — {wall:.2f}s vs "
            f"baseline {base_wall:.2f}s (limit {limit:.2f}s at "
            f"+{max_regress_pct:.0f}%)")
    for section in ("metrics", "counters") if check_metrics else ():
        now, then = current[section], base[section]
        if now != then:
            drifted = sorted(name for name in set(now) | set(then)
                             if now.get(name) != then.get(name))
            problems.append(
                f"{figure_key}: simulated {section} drifted from baseline "
                f"for {drifted} — results must be deterministic at a "
                f"fixed seed")
    return problems
