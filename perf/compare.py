"""``--compare A.json B.json``: is B worse than A by more than a bound?

One row per (workload, end-to-end metric) with both medians and
quartiles, the bound and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but either side's quartile spread
  is wider than the bound, so "unchanged" is not a claim the data
  supports (unless every value of B reads better than every value of A);
* ``ok``         — otherwise.

Simulated metrics are exact at a seed: when both files were run at the
same seed they, ``sim_digest`` and every [c] count must be *equal*, and
any difference is reported.  Exit status 1 on any ``worse`` row or a
higher ``fail_share``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .metrics import E2E_BY_NAME
from .stats import relative_spread


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def verdict(name: str, a: Dict[str, float], b: Dict[str, float]) -> str:
    spec = E2E_BY_NAME[name]
    sign = 1.0 if spec.better == "lower" else -1.0
    base = abs(a["value"]) or 1.0
    worse_by = sign * (b["value"] - a["value"]) / base
    if worse_by > spec.bound:
        return "worse"
    b_all_better = (b["q3"] < a["q1"] if spec.better == "lower"
                    else b["q1"] > a["q3"])
    widest = max(relative_spread(a["value"], a["q1"], a["q3"]),
                 relative_spread(b["value"], b["q1"], b["q3"]))
    if widest > spec.bound and not b_all_better:
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict) -> Tuple[List[str], bool]:
    """Report lines and whether B regressed against A."""
    lines = [f"{'workload':<14} {'metric':<20} {'A median [q1, q3]':>34} "
             f"{'B median [q1, q3]':>34} {'bound':>6}  verdict"]
    regressed = False
    same_seed = a.get("seed") == b.get("seed")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            lines.append(f"{workload:<14} missing from B")
            regressed = True
            continue
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                lines.append(f"{workload:<14} {name:<20} missing from B")
                regressed = True
                continue
            outcome = verdict(name, ma, mb)
            if same_seed and ma["kind"] == "sim" \
                    and ma["value"] != mb["value"]:
                outcome += " (sim differs at the same seed)"
            regressed |= outcome.startswith("worse")
            lines.append(
                f"{workload:<14} {name:<20} "
                f"{_cell(ma):>34} {_cell(mb):>34} "
                f"{E2E_BY_NAME[name].bound:>6.0%}  {outcome}")
        if wb["fail_share"] > wa["fail_share"]:
            regressed = True
            lines.append(f"{workload:<14} fail_share rose: "
                         f"{wa['failed']}/{wa['attempted']} -> "
                         f"{wb['failed']}/{wb['attempted']}")
        if same_seed:
            if wa["sim_digest"] != wb["sim_digest"]:
                lines.append(f"{workload:<14} sim_digest differs "
                             f"(simulated behaviour changed)")
            moved = sorted(name for name, value in wa["counts"].items()
                           if wb["counts"].get(name) != value)
            if moved:
                lines.append(f"{workload:<14} [c] counts differ: "
                             f"{', '.join(moved)}")
    lines.append("REGRESSED" if regressed else "no regression")
    return lines, regressed


def _cell(metric: Dict[str, float]) -> str:
    return (f"{metric['value']:.5g} [{metric['q1']:.5g}, "
            f"{metric['q3']:.5g}]")


def main(path_a: str, path_b: str) -> int:
    lines, regressed = compare(load(path_a), load(path_b))
    print("\n".join(lines))
    return 1 if regressed else 0
