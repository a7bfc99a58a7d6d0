"""The run protocol: reps, cycles, calibrated seconds, failure accounting
and the end-to-end metrics of one workload.

A *rep* runs the arms of one variant — build the database, run the arm
to completion, run its checks — with the cyclic collector off, as ``repro
bench`` does.  The calibration loop runs before the rep and after each
arm; the rep's calibrated seconds are its measured wall time scaled by
those loops.  A *cycle* is one rep per variant: every variant runs the
primary and baseline arms (the simulated metrics need many seeded copies
of those two), variant 0 also runs the extra arms (they are there for
host cost and correctness; one copy a cycle covers that).  Simulated
metrics pool the first cycle; host metrics are per cycle, median over
cycles.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Tuple)

from . import adapter
from .adapter import ArmResult
from .calibrate import REFERENCE_LOOP_S, calibration_loop, factor
from .metrics import END_TO_END
from .stats import percentile, spread
from .trace import Tracer
from .workloads import Workload


@dataclass
class Rep:
    variant: int
    arms: List[ArmResult]
    wall_s: float
    loops: List[float]
    problems: List[str] = field(default_factory=list)

    @property
    def cal_s(self) -> float:
        return self.wall_s * factor(self.loops)

    @property
    def committed(self) -> int:
        return sum(arm.committed for arm in self.arms)

    @property
    def attempted(self) -> int:
        return sum(arm.attempted for arm in self.arms)

    @property
    def failed(self) -> int:
        # An arm that fails a check marks all its operations failed.
        return sum(arm.failed if arm.ok else arm.attempted
                   for arm in self.arms)

    def arm(self, name: str) -> ArmResult:
        return next(arm for arm in self.arms if arm.name == name)


def run_rep(workload: Workload, seed: int, variant: int,
            extras: bool = True, deep: bool = False, calibrate: bool = True,
            around_arm: Callable[[], ContextManager] = contextlib.nullcontext,
            on_arm: Optional[Callable[[ArmResult], None]] = None) -> Rep:
    """One rep of ``workload`` at variant ``variant`` of ``seed``, with or
    without the extra arms.

    ``deep`` additionally runs the every-surface ``deep_verify`` on the
    primary arm (untimed: it is a check of the last rep, not part of what
    a rep costs).  ``around_arm`` wraps each arm's timed region and
    ``on_arm`` is called after it, untimed (the traced run opens its root
    span and snapshots its aggregates there).  Without calibration
    (``--smoke``) calibrated seconds equal measured ones.
    """
    arm_seed = workload.variant_seed(seed, variant)
    loops: List[float] = []
    results: List[ArmResult] = []
    problems: List[str] = []
    wall = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if calibrate:
            loops.append(calibration_loop())
        primary: Optional[ArmResult] = None
        for arm in workload.arms:   # the primary arm comes first
            if arm.role == "extra" and not extras:
                continue
            with around_arm():
                start = time.perf_counter()
                result = adapter.run_arm(workload, arm, arm_seed, primary)
                wall += time.perf_counter() - start
            if calibrate:
                loops.append(calibration_loop())
            if arm.role == "primary":
                primary = result
                if deep:
                    result.checks.append(adapter.deep_check(result))
            problems.extend(f"{workload.name}/{arm.name} v{variant}: "
                            f"{check} failed"
                            for check, passed in result.checks if not passed)
            if on_arm is not None:
                on_arm(result)
            results.append(result)
            # Untimed: free the arm's database before the next one is
            # built, so peak memory is one arm's, not the rep's sum.
            result.engine = None
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return Rep(variant=variant, arms=results, wall_s=wall,
               loops=loops or [REFERENCE_LOOP_S], problems=problems)


def run_cycles(workload: Workload, seed: int, seconds: float,
               cycles: Optional[int] = None,
               calibrate: bool = True) -> List[List[Rep]]:
    """Whole cycles until ``seconds`` are used up (at least one);
    ``cycles`` overrides the time box with a count."""
    done: List[List[Rep]] = []
    started = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        # The deep check rides the first cycle's last rep: the last rep
        # whose position is known before the time box runs out.
        done.append([
            run_rep(workload, seed, variant, extras=variant == 0,
                    deep=not done and variant == workload.variants - 1,
                    calibrate=calibrate)
            for variant in range(workload.variants)])
        now = time.perf_counter()
        if cycles is not None:
            if len(done) >= cycles:
                return done
        elif (now - started) + (now - cycle_start) / 2 >= seconds:
            # Another cycle would overshoot the box by more than it
            # undershoots now.
            return done


# -- simulated metrics ---------------------------------------------------------

def sim_metrics(workload: Workload, cycle: Sequence[Rep]
                ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The simulated end-to-end metrics of one full cycle, pooled over
    its variants, and the ungated figures printed beside them (sample
    count, the p99-based interference the tail is too noisy to gate)."""
    primary = [rep.arm(workload.primary.name) for rep in cycle]
    baseline = [rep.arm(workload.baseline.name) for rep in cycle]
    times = sorted(t for arm in primary for t in arm.responses)
    base_times = sorted(t for arm in baseline for t in arm.responses)
    window_s = sum(arm.window_ms for arm in primary) / 1000.0
    mean = sum(times) / len(times)
    base_mean = sum(base_times) / len(base_times)
    p99, base_p99 = percentile(times, 99.0), percentile(base_times, 99.0)
    gated = {
        "sim_tput_tps": sum(arm.in_window for arm in primary) / window_s,
        "sim_p50_ms": percentile(times, 50.0),
        "sim_p99_ms": p99,
        "sim_interference_x": mean / base_mean,
        "sim_reorg_s": sum(arm.reorg_ms for arm in primary)
        / len(primary) / 1000.0,
    }
    info = {
        "primary_samples": len(times),
        "baseline_samples": len(base_times),
        "sim_mean_ms": mean,
        "sim_baseline_mean_ms": base_mean,
        "sim_baseline_p99_ms": base_p99,
        "sim_interference_pct": (mean / base_mean - 1.0) * 100.0,
        "sim_interference_p99_pct": (p99 / base_p99 - 1.0) * 100.0,
    }
    return gated, info


def sim_digest(cycle: Sequence[Rep]) -> str:
    """SHA-256 over every arm's summary and kernel counters, canonical
    JSON, variants in order.  Information, not a gate: a host-only change
    can show "simulated behaviour identical" with it."""
    payload = [[{"arm": arm.name, "summary": arm.summary,
                 "counters": arm.sim_counters} for arm in rep.arms]
               for rep in cycle]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- a workload's result ---------------------------------------------------------

def peak_rss_mb() -> float:
    """This process's high-water resident set, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(workload: Workload, cycles: Sequence[Sequence[Rep]]
              ) -> Dict[str, object]:
    """Everything one worker reports about its cycles (``setup_s`` is
    measured by the parent, in fresh children, and added there)."""
    first = cycles[0]
    reps = [rep for cycle in cycles for rep in cycle]
    sim, info = sim_metrics(workload, first)
    cycle_s = [sum(rep.cal_s for rep in cycle) for cycle in cycles]
    values: Dict[str, List[float]] = {
        "run_s": cycle_s,
        "host_txn_per_s": [sum(rep.committed for rep in cycle) / seconds
                           for cycle, seconds in zip(cycles, cycle_s)],
        "peak_rss_mb": [peak_rss_mb()],
    }
    values.update({name: [value] for name, value in sim.items()})
    metrics = {}
    for spec in END_TO_END:
        if spec.name not in values:
            continue
        median, q1, q3 = spread(values[spec.name])
        metrics[spec.name] = {
            "value": median, "unit": spec.unit, "q1": q1, "q3": q3,
            "n": len(values[spec.name]), "kind": spec.kind}
    problems = [problem for rep in reps for problem in rep.problems]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    return {
        "workload": workload.name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "problems": problems,
        "metrics": metrics,
        "info": info,
        "sim_digest": sim_digest(first),
        "counts": layer_counts(workload, first[0]),
        "reps": [{"variant": rep.variant, "wall_s": rep.wall_s,
                  "cal_s": rep.cal_s, "factor": factor(rep.loops),
                  "committed": rep.committed} for rep in reps],
        "arms": {arm.name: {"role": arm.role, **arm.summary}
                 for arm in first[0].arms},
    }


def layer_counts(workload: Workload, rep: Rep) -> Dict[str, float]:
    """The [c] per-layer metrics of one rep: the primary arm's counters,
    plus the arm-independent ones (chaos verdicts, Table 2 error)."""
    counts = dict(rep.arm(workload.primary.name).counts)
    for arm in rep.arms:
        counts.update({name: value for name, value in arm.counts.items()
                       if name.startswith("faults.")})
    if workload.name == "table2_mem":
        counts["core.paper_tput_err_pct"] = adapter.paper_tput_err_pct({
            arm.name: arm.summary["throughput_tps"] for arm in rep.arms})
    return counts


def traced_rep(workload: Workload, seed: int, keep_spans: bool
               ) -> Tuple[Rep, Tracer, Dict[str, Dict[str, tuple]]]:
    """One rep of variant 0 with every trace point installed.  Returns
    the rep, the tracer and the per-arm aggregate snapshots
    (``arm -> name -> row``, cumulative up to the end of that arm)."""
    tracer = Tracer(keep_spans=keep_spans,
                    process_layers=adapter.PROCESS_LAYERS)
    after_arm: Dict[str, Dict[str, tuple]] = {}

    def snapshot(result: ArmResult) -> None:
        after_arm[result.name] = tracer.rows()

    tracer.install(adapter.trace_points())
    try:
        rep = run_rep(workload, seed, 0, on_arm=snapshot,
                      around_arm=lambda: tracer.root("arm"))
    finally:
        tracer.uninstall()
    return rep, tracer, after_arm
