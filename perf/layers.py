"""Per-layer metrics: exact counters [c], the traced run [t] and the
micro-benchmarks [m], assembled into one value per catalogue entry.

Every catalogue name gets a value on every workload; a metric of a layer
the workload never enters is 0 (that *is* the prediction: ``hlock`` does
nothing outside ``scan_hier``), and the human-readable table says so.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import adapter
from .calibrate import calibration_loop, factor
from .metrics import PER_LAYER, PER_LAYER_BY_NAME, SHARE_LAYERS
from .runner import Rep
from .trace import CALLS, HOST_SELF, HOST_TOTAL, SIM_SELF, SIM_TOTAL, Tracer
from .workloads import BY_NAME, Workload

#: Transaction operations whose simulated self time is CPU queue + service
#: (their lock waits, page fixes and log flushes are child spans).
_TXN_OPS = ("Transaction.read", "Transaction.read_refs",
            "Transaction.write_payload", "Transaction.update_ref")
_REORG_RUNS = ("IncrementalReorganizer.run", "PartitionQuiesceReorganizer.run",
               "MergeReorganizer.run")
_VERIFY = ("StorageEngine.verify_integrity", "MvccTier.verify")

Rows = Dict[str, tuple]


def _delta(after: Rows, before: Optional[Rows]) -> Rows:
    if before is None:
        return after
    return {name: tuple(a - b for a, b in
                        zip(row, before.get(name, (0,) * len(row))))
            for name, row in after.items()}


def _sum(rows: Rows, names: Sequence[str], column: int) -> float:
    return sum(rows[name][column] for name in names if name in rows)


def traced_metrics(workload: Workload, rep: Rep, tracer: Tracer,
                   after_arm: Dict[str, Rows],
                   untraced_cal_s: float) -> Dict[str, float]:
    """The [t] metrics of one traced rep.  Shares are of the whole rep's
    traced host time; per-transaction numbers are of the primary arm."""
    rows = tracer.rows()
    layer_of = tracer.layer_of()
    total = rows["arm"][HOST_TOTAL]
    self_by_layer: Dict[str, float] = {}
    for name, row in rows.items():
        layer = layer_of[name]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + row[HOST_SELF]

    out: Dict[str, float] = {
        f"{layer}.self_share": self_by_layer.get(layer, 0.0) / total
        for layer in SHARE_LAYERS}
    out["trace.other_share"] = self_by_layer.get("bench", 0.0) / total
    out["workload.build_share"] = _sum(
        rows, ("Database.with_workload",), HOST_TOTAL) / total
    out["workload.verify_share"] = _sum(rows, _VERIFY, HOST_TOTAL) / total
    out["core.ckpt_share"] = _sum(
        rows, ("WalReorgStateStore.save",), HOST_TOTAL) / total

    events = sum(arm.sim_counters.get("events_dispatched", 0)
                 for arm in rep.arms)
    # Chaos points run on simulators whose counters the harness keeps to
    # itself; their dispatch time is in the numerator only, so the figure
    # is reported for the arms that expose their counters.
    out["sim.us_per_event"] = (
        1e6 * self_by_layer.get("sim", 0.0) / events if events else 0.0)

    # The primary arm runs first, so its snapshot is its own delta.
    primary_name = workload.primary.name
    primary = rep.arm(primary_name)
    arm_rows = after_arm[primary_name]
    commits = primary.committed or 1
    engaged_ms = (_sum(arm_rows, _TXN_OPS, SIM_SELF)
                  + _sum(arm_rows, ("Resource.use[cpu]",), SIM_TOTAL))
    out["sim.cpu_queue_ms_per_txn"] = max(
        0.0, engaged_ms - primary.cpu_busy_ms) / commits
    out["wal.flush_ms_per_txn"] = _sum(
        arm_rows, ("LogManager.flush",), SIM_TOTAL) / commits
    out["storage.io_ms_per_txn"] = _sum(
        arm_rows, ("BufferPool.fix",), SIM_TOTAL) / commits
    out["txn.ops_per_txn"] = _sum(arm_rows, _TXN_OPS, CALLS) / commits
    reorg_host = _sum(arm_rows, _REORG_RUNS, HOST_TOTAL)
    out["core.migrated_per_s"] = (
        primary.counts.get("core.objects_migrated", 0) / reorg_host
        if reorg_host else 0.0)

    analyzed = tracer.counts.get("wal.records_analyzed", 0.0)
    redone = tracer.counts.get("wal.records_redone", 0.0)
    recover_host = _sum(rows, ("RecoveryManager.run",), HOST_TOTAL)
    out["wal.recover_records_s"] = (
        (analyzed + redone) / recover_host if recover_host else 0.0)
    out["wal.redo_share"] = redone / analyzed if analyzed else 0.0

    out["trace.spans_per_txn"] = tracer.span_count / (rep.committed or 1)
    out["trace.overhead_x"] = rep.cal_s / untraced_cal_s
    return out


def per_arm_layer_shares(tracer: Tracer, after_arm: Dict[str, Rows],
                         arm_order: Sequence[str]
                         ) -> Dict[str, Dict[str, float]]:
    """Layer self-time shares of each arm's own traced host time — the
    finer cut behind findings such as "hlock is a quarter of a hier arm
    and nothing of the flat one"."""
    layer_of = tracer.layer_of()
    out: Dict[str, Dict[str, float]] = {}
    before: Optional[Rows] = None
    for arm in arm_order:
        rows = _delta(after_arm[arm], before)
        before = after_arm[arm]
        total = rows["arm"][HOST_TOTAL]
        shares: Dict[str, float] = {}
        for name, row in rows.items():
            layer = layer_of[name]
            shares[layer] = shares.get(layer, 0.0) + row[HOST_SELF] / total
        out[arm] = {layer: share for layer, share in sorted(shares.items())
                    if share > 0}
    return out


# -- micro-benchmarks -----------------------------------------------------------

#: Timed repeats of each fixture's ``run``; the median is reported.
MICRO_REPEATS = 3


def max_rate_fixture() -> Workload:
    """``serve_fleet`` cut down for the three-rate layer pass."""
    base = BY_NAME["serve_fleet"]
    return dataclasses.replace(
        base, objects_per_partition=340,
        options={**base.options, "duration_ms": 15_000.0})


def micro_metrics(seed: int) -> Dict[str, float]:
    """Every [m] metric: calibrated operations per second (or seconds /
    milliseconds per operation, per the catalogue's unit).  The same for
    every workload — the fixtures are the layers' own."""
    out: Dict[str, float] = {}
    timed: Dict[str, Tuple[float, int]] = {}
    loops = [calibration_loop()]
    for index, (name, factory) in enumerate(adapter.MICRO.items()):
        run, ops = factory()
        walls: List[float] = []
        for _ in range(MICRO_REPEATS):
            start = time.perf_counter()
            extra = run()
            walls.append(time.perf_counter() - start)
            out.update(extra or {})
        timed[name] = (statistics.median(walls), ops)
        if index == len(adapter.MICRO) // 2:
            loops.append(calibration_loop())
    loops.append(calibration_loop())
    cal = factor(loops)
    for name, (wall, ops) in timed.items():
        cal_s = wall * cal
        unit = PER_LAYER_BY_NAME[name].unit
        if unit == "1/s":
            out[name] = ops / cal_s
        else:
            out[name] = cal_s / ops * (1000.0 if unit == "ms" else 1.0)
    out["serve.max_rate_tps"] = adapter.serve_max_rate_tps(
        max_rate_fixture(), seed)
    return out


def assemble(counts: Dict[str, float], traced: Dict[str, float],
             micro: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """One entry per catalogue name, in catalogue order; 0 where the
    workload never reaches the layer."""
    merged = {**counts, **traced, **micro}
    return {spec.name: {"value": float(merged.get(spec.name, 0.0)),
                        "unit": spec.unit}
            for spec in PER_LAYER}
