"""The committed figures: ``BENCH.json``.

The file records, per *figure* (an experiment at a scale, keyed
``"<experiment>/<scale>"``, e.g. ``"table2/standard"``):

* ``metrics``  — the simulated result summaries.  These are deterministic
  at a fixed seed, so the file pins the *simulated* outcome byte for
  byte: any diff here is a behaviour change, not noise;
* ``counters`` — kernel counters (events dispatched, timers
  scheduled/cancelled, heap peak) per run: part of the schedule, so
  pinned exactly like the metrics;
* ``holds``    — whether the experiment's acceptance verdict held.

``metrics`` and ``counters`` are keyed by sweep point (when the
experiment is swept) then arm (when it has more than one);
:func:`repro.bench.harness.figure` builds an entry from a run.

One rule gates a figure: *the run equals the committed figure, verdict
included*.  ``repro bench <experiment> --compare BENCH.json`` exits 1 on
any difference in the three; ``--json FILE`` records a run.  Host cost
(wall-clock, profiles) is not recorded here — ``perf/`` owns it.
"""

from __future__ import annotations

import json
from typing import Dict, List

SCHEMA = "repro-bench/2"


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
                   baseline: Dict[str, object]) -> List[str]:
    """Problems comparing one current figure against a baseline file:
    *any* difference in the simulated metrics, the kernel counters or the
    verdict (same seed, same code must mean the same simulated numbers
    and the same schedule — drift is a bug, and optimizations are
    required to be result-preserving)."""
    figures = baseline.get("figures", {})
    base = figures.get(figure_key)
    if base is None:
        return [f"baseline has no figure {figure_key!r} "
                f"(has: {sorted(figures)})"]
    problems: List[str] = []
    for section in ("metrics", "counters"):
        now, then = current[section], base[section]
        if now != then:
            drifted = sorted(name for name in set(now) | set(then)
                             if now.get(name) != then.get(name))
            problems.append(
                f"{figure_key}: simulated {section} drifted from baseline "
                f"for {drifted} — results must be deterministic at a "
                f"fixed seed")
    if current["holds"] != base["holds"]:
        problems.append(
            f"{figure_key}: verdict drifted from baseline — holds is "
            f"{current['holds']}, committed {base['holds']}")
    return problems
