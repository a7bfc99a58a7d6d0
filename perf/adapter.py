"""The benchmark's whole contact surface with the library.

This is the **only** file under ``perf/`` that imports ``repro``.  Every
symbol is bound through :func:`_bind` from a package-level export (never
``repro.cli`` or a ``repro.*.bench`` module, which the harness refactor
will delete), so ``python perf/bench.py --surface`` can print exactly
what a refactor has to keep working: the bound symbols, the entry points
the tracer wraps, and the public counters the per-layer metrics read.

Three things live here: the arm runners (one fresh database per arm, run
to completion, checked), the trace-point table, and the micro-benchmark
fixtures that call one layer's public functions in a tight loop.
"""

from __future__ import annotations

import importlib
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .stats import percentile
from .trace import TracePoint
from .workloads import Arm, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(_SRC, "repro", "__init__.py")):
    raise ImportError(f"the program under test is missing: no {_SRC}/repro")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Every ``module.name`` this file binds, in binding order.
SURFACE: List[str] = []


def _bind(module: str, *names: str) -> Any:
    """Import ``names`` from ``module`` and record them in the surface."""
    mod = _bind_module(module, *names)
    values = tuple(getattr(mod, name) for name in names)
    return values[0] if len(values) == 1 else values


def _bind_module(module: str, *names: str) -> Any:
    """Record ``names`` but return the module: for functions that must be
    looked up at call time so the traced run sees the wrapped version."""
    mod = importlib.import_module(module)
    for name in names:
        getattr(mod, name)
    SURFACE.extend(f"{module}.{name}" for name in names)
    return mod


(Database, StorageEngine, WorkloadConfig, SystemConfig, ReorgConfig,
 ServeConfig, FleetConfig, GovernorConfig, ExperimentConfig,
 CompactionPlan, WalReorgStateStore, WorkloadDriver, ExperimentMetrics,
 ServingLayer, ReorgFleet, ReorgGovernor, IncrementalReorganizer,
 PartitionQuiesceReorganizer, LockTimeoutError, LockMode, Oid,
 ObjectImage) = _bind(
    "repro", "Database", "StorageEngine", "WorkloadConfig", "SystemConfig",
    "ReorgConfig", "ServeConfig", "FleetConfig", "GovernorConfig",
    "ExperimentConfig", "CompactionPlan", "WalReorgStateStore",
    "WorkloadDriver", "ExperimentMetrics", "ServingLayer", "ReorgFleet",
    "ReorgGovernor", "IncrementalReorganizer", "PartitionQuiesceReorganizer",
    "LockTimeoutError", "LockMode", "Oid", "ObjectImage")
_repro = _bind_module("repro", "deep_verify")
_faults = _bind_module("repro.faults", "run_chaos_point", "ChaosReport",
                       "FaultInjector")
MvccConfig, DistConfig = _bind("repro.config", "MvccConfig", "DistConfig")
(MvccTier, MergeReorganizer, SnapshotTransaction, mvcc_random_walk,
 begin_snapshot_txn) = _bind(
    "repro.mvcc", "MvccTier", "MergeReorganizer", "SnapshotTransaction",
    "mvcc_random_walk", "begin_snapshot_txn")
HierarchicalLockManager = _bind("repro.hlock", "HierarchicalLockManager")
LockManager = _bind("repro.concurrency", "LockManager")
Simulator, Resource, Delay, SchedulerPolicy = _bind(
    "repro.sim", "Simulator", "Resource", "Delay", "SchedulerPolicy")
(LogManager, RecoveryManager, PayloadUpdateRecord, RefUpdateRecord,
 decode_record) = _bind(
    "repro.wal", "LogManager", "RecoveryManager", "PayloadUpdateRecord",
    "RefUpdateRecord", "decode_record")
LogAnalyzer, ExternalReferenceTable = _bind(
    "repro.refs", "LogAnalyzer", "ExternalReferenceTable")
ObjectStore, NoSuchObjectError = _bind(
    "repro.storage", "ObjectStore", "NoSuchObjectError")
BufferPool = _bind("repro.storage.buffer", "BufferPool")
ExtendibleHashIndex = _bind("repro.index", "ExtendibleHashIndex")
Transaction = _bind("repro.txn", "Transaction")
ReorgState, encode_reorg_state = _bind(
    "repro.core", "ReorgState", "encode_reorg_state")
random_walk_transaction, TransactionRecord = _bind(
    "repro.workload", "random_walk_transaction", "TransactionRecord")
WriteConflictError = _bind("repro.errors", "WriteConflictError")
DistCluster, cluster_deep_verify = _bind(
    "repro.dist", "DistCluster", "cluster_deep_verify")

#: Public counters and attributes the per-layer metrics read.
COUNTERS: Tuple[str, ...] = (
    "Simulator.counters()", "Simulator.now",
    "LockManager.stats.{requests,waits,timeouts,total_wait_ms,table_peak,"
    "escalations,deescalations}",
    "LogManager.{last_lsn,flush_count,io_retries,durable_bytes()}",
    "LogAnalyzer.records_processed",
    "BufferPool.stats.{hits,misses,evictions,writebacks,coalesced_reads}",
    "ObjectStore.{partition_ids(),stats(pid).{capacity_bytes,live_bytes}}",
    "TransactionManager.{started,committed}",
    "ReorgStats.{objects_migrated,parent_patches,max_locks_held,"
    "deadlock_retries,trt_peak,duration_ms,started_ms,finished_ms}",
    "MvccTier.stats.{tail_reads,base_reads,write_conflicts,commits,"
    "versions_pruned}",
    "ServeMetrics.{arrivals,shed,deadline_misses,retry_budget_exhausted,"
    "avg_queue_wait_ms}",
    "ReorgFleet.{stats,leases.takeovers}", "ReorgGovernor.paused_ms",
    "Resource.total_busy_time", "RecoveryManager.stats.{records_analyzed,"
    "records_redone}",
    "ChaosReport.{points,all_ok,resume_demonstrated}",
    "ExperimentMetrics.{summary(),response_times(),records,window_ms,"
    "reorg_duration_ms,reorg_stats,total_retries}",
    "DistCluster.{net.stats.sent,nodes[].reorg.tpc_rounds}",
)

#: The reorganized partition of every closed-loop arm.
REORG_PARTITION = 1
#: Published Table 2 throughputs (tps) at the paper's own scale.
PAPER_TABLE2_TPS = {"nr": 35.0, "ira": 33.7, "pqr": 28.0}


# -- transaction bodies re-stated here (their originals live in bench
# -- modules this benchmark must not depend on) ------------------------------

#: Probability that a scan-mix transaction is a whole-cluster scan.
SCAN_PROB = 0.25


def cluster_scan_transaction(engine, layout, config, rng: random.Random,
                             home_partition: int) -> Generator:
    """Read every object of one cluster through its tree edges, entered
    via a root stub (always current: the reorganizer patches stubs
    transactionally), S locks throughout."""
    txn = engine.txns.begin()
    try:
        stubs = layout.root_stubs[home_partition]
        stub = stubs[rng.randrange(len(stubs))]
        stack = [(yield from txn.read_refs(stub))[0]]
        while stack:
            image = yield from txn.read(stack.pop())
            for slot, child in image.refs():
                if slot < config.branching:
                    stack.append(child)
        yield from txn.commit()
    except LockTimeoutError:
        yield from txn.abort(reason="deadlock")
        raise
    except NoSuchObjectError:
        yield from txn.abort(reason="stale-read")
        raise


def scan_mix_transaction(engine, layout, config, rng: random.Random,
                         home_partition: int) -> Generator:
    """Scan with :data:`SCAN_PROB`, else the paper's random walk; the
    flavour comes off the per-transaction rng so a retry repeats it."""
    if rng.random() < SCAN_PROB:
        return (yield from cluster_scan_transaction(
            engine, layout, config, rng, home_partition))
    return (yield from random_walk_transaction(
        engine, layout, config, rng, home_partition))


class ScanMixDriver(WorkloadDriver):
    walk_fn = staticmethod(scan_mix_transaction)
    retry_on = (LockTimeoutError, NoSuchObjectError)


class SnapshotDriver(WorkloadDriver):
    """The closed-loop driver over snapshot transactions, retried on
    first-committer-wins conflicts."""

    walk_fn = staticmethod(mvcc_random_walk)
    retry_on = (WriteConflictError,)


# -- arm results -------------------------------------------------------------

@dataclass
class ArmResult:
    name: str
    role: str
    #: ``metrics.summary()`` (plus the chaos report's, for a chaos arm).
    summary: Dict[str, object]
    sim_counters: Dict[str, int]
    #: Response times (simulated ms) of every committed logical txn.
    responses: List[float] = field(default_factory=list)
    in_window: int = 0
    window_ms: float = 0.0
    reorg_ms: Optional[float] = None
    #: Simulated (start, end) of the reorganization, all partitions.
    reorg_window: Optional[Tuple[float, float]] = None
    committed: int = 0
    #: Operations submitted: logical transactions started (closed loop)
    #: or arrived (open loop), or chaos points.
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Per-layer [c] metrics of this arm, by metric name (primary and
    #: chaos arms only: nothing reads the others').
    counts: Dict[str, float] = field(default_factory=dict)
    #: Simulated ms the arm's CPU resource was busy.
    cpu_busy_ms: float = 0.0
    #: Kept only until the rep's last checks have run.
    engine: Any = None

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def workload_config(workload: Workload, seed: int) -> WorkloadConfig:
    return WorkloadConfig(num_partitions=workload.num_partitions,
                          objects_per_partition=workload.objects_per_partition,
                          mpl=workload.mpl, update_prob=workload.update_prob,
                          seed=seed)


def _system(workload: Workload, arm: Arm) -> SystemConfig:
    return SystemConfig(**{**workload.system, **arm.system})


def setup_once(workload: Workload, seed: int) -> None:
    """What ``setup_s`` times inside a fresh child (after the import)."""
    Database.with_workload(workload_config(workload, seed),
                           system=_system(workload, workload.primary))


def _per(count: float, committed: int) -> float:
    return count / committed if committed else 0.0


def _layer_counts(engine, metrics, committed: int,
                  reorg_stats: List[object]) -> Dict[str, float]:
    """The [c] per-layer metrics of one arm: public counters, normalised
    per committed logical transaction of the arm."""
    sim = engine.sim.counters()
    locks = engine.locks.stats
    log = engine.log
    out = {
        "sim.events_per_txn": _per(sim["events_dispatched"], committed),
        "sim.cancelled_per_txn": _per(sim["timers_cancelled"], committed),
        "sim.heap_peak": sim["heap_peak"],
        "concurrency.acquires_per_txn": _per(locks.requests, committed),
        "concurrency.waits_per_txn": _per(locks.waits, committed),
        "concurrency.timeouts_per_txn": _per(locks.timeouts, committed),
        "concurrency.table_peak": locks.table_peak,
        "concurrency.wait_ms_per_txn": _per(locks.total_wait_ms, committed),
        "hlock.escalations_per_txn": _per(locks.escalations, committed),
        "hlock.deescalations_per_txn": _per(locks.deescalations, committed),
        "wal.records_per_txn": _per(log.last_lsn, committed),
        "wal.bytes_per_txn": _per(len(log.durable_bytes()), committed),
        "wal.flushes_per_txn": _per(log.flush_count, committed),
        "wal.io_retries": log.io_retries,
        "refs.analyzed_per_txn": _per(engine.analyzer.records_processed,
                                      committed),
        "txn.commit_ratio": _per(engine.txns.committed, engine.txns.started),
        "txn.retries_per_txn": _per(metrics.total_retries, committed),
    }
    capacity = live = 0
    for pid in engine.store.partition_ids():
        stats = engine.store.stats(pid)
        capacity += stats.capacity_bytes
        live += stats.live_bytes
    out["storage.space_per_live_byte"] = capacity / live if live else 0.0
    if engine.buffer is not None:
        buf = engine.buffer.stats
        fixes = buf.hits + buf.misses
        out.update({
            "storage.fixes_per_txn": _per(fixes, committed),
            "storage.hit_ratio": buf.hits / fixes if fixes else 0.0,
            "storage.misses_per_txn": _per(buf.misses, committed),
            "storage.evictions_per_txn": _per(buf.evictions, committed),
            "storage.writebacks_per_txn": _per(buf.writebacks, committed),
            "storage.coalesced_share": _per(buf.coalesced_reads, buf.misses),
        })
    if reorg_stats:
        migrated = sum(s.objects_migrated for s in reorg_stats)
        out.update({
            "refs.trt_peak": max(s.trt_peak for s in reorg_stats),
            "core.objects_migrated": migrated,
            "core.patches_per_object": _per(
                sum(s.parent_patches for s in reorg_stats), migrated),
            "core.max_locks_held": max(s.max_locks_held for s in reorg_stats),
            "core.deadlock_retries": sum(s.deadlock_retries
                                         for s in reorg_stats),
        })
    tier = engine.mvcc
    if tier is not None:
        reads = tier.stats.tail_reads + tier.stats.base_reads
        out.update({
            "mvcc.tail_read_share": _per(tier.stats.tail_reads, reads),
            "mvcc.conflicts_per_txn": _per(tier.stats.write_conflicts,
                                           committed),
            "mvcc.versions_pruned": tier.stats.versions_pruned,
        })
    return out


def _finish(arm: Arm, db: Database, metrics,
            reorg_stats: List[object], attempted: int, failed: int,
            extra_checks: Tuple[Tuple[str, bool], ...] = ()) -> ArmResult:
    engine = db.engine
    committed = metrics.completed
    checks = [("verify_integrity", db.verify_integrity().ok)]
    checks.extend(extra_checks)
    reorg_window = None
    if reorg_stats:
        reorg_window = (min(s.started_ms for s in reorg_stats),
                        max(s.finished_ms for s in reorg_stats))
    return ArmResult(
        name=arm.name, role=arm.role, summary=metrics.summary(),
        sim_counters=engine.sim.counters(),
        responses=metrics.response_times(),
        in_window=sum(1 for record in metrics.records
                      if record.finished_ms <= metrics.window_ms),
        window_ms=metrics.window_ms,
        # A fleet runs from its first start to its last finish.
        reorg_ms=reorg_window[1] - reorg_window[0] if reorg_window else None,
        reorg_window=reorg_window,
        committed=committed, attempted=attempted, failed=failed,
        checks=checks,
        # Only the primary arm's counters are reported.
        counts=(_layer_counts(engine, metrics, committed, reorg_stats)
                if arm.role == "primary" else {}),
        cpu_busy_ms=engine.cpu.total_busy_time, engine=engine)


# -- arm runners --------------------------------------------------------------

def run_closed(workload: Workload, arm: Arm, seed: int,
               horizon_ms: Optional[float]) -> ArmResult:
    """MPL threads submitting back to back, optionally racing one
    reorganization of partition 1; 2PL or snapshot transactions."""
    config = workload_config(workload, seed)
    system = _system(workload, arm)
    db, layout = Database.with_workload(config, system=system)
    engine = db.engine
    tier = None
    if arm.runner == "mvcc":
        tier = MvccTier.attach(engine, MvccConfig())
        driver_cls = SnapshotDriver
    else:
        driver_cls = (ScanMixDriver if arm.options.get("scan_mix")
                      else WorkloadDriver)
    driver = driver_cls(engine, layout,
                        ExperimentConfig(workload=config, system=system))
    reorg_stats: List[object] = []
    if arm.algorithm is None:
        metrics = driver.run(horizon_ms=horizon_ms)
    else:
        extra: Dict[str, object] = {}
        reorg_config = None
        if arm.options.get("wal_state"):
            reorg_config = ReorgConfig(
                checkpoint_every=workload.options["checkpoint_every"])
            extra["state_store"] = WalReorgStateStore(engine, REORG_PARTITION)
        reorganizer = db.reorganizer(
            REORG_PARTITION, arm.algorithm, plan=CompactionPlan(),
            reorg_config=reorg_config, **extra)
        metrics = driver.run(reorganizer=reorganizer)
        reorg_stats = [metrics.reorg_stats]
    # Closed-loop threads drain: a transaction in flight when the window
    # closes still commits and is recorded, so started == committed.
    extra_checks = ()
    if tier is not None:
        extra_checks = (("mvcc_tier_verify", tier.verify() == []),)
    return _finish(arm, db, metrics, reorg_stats,
                   attempted=metrics.completed, failed=0,
                   extra_checks=extra_checks)


def serve_config(workload: Workload, seed: int,
                 rate_tps: Optional[float] = None) -> ServeConfig:
    options = workload.options
    return ServeConfig(
        arrival="poisson",
        arrival_rate_tps=rate_tps or options["arrival_rate_tps"],
        zipf_s=options["zipf_s"], servers=options["servers"],
        duration_ms=options["duration_ms"], seed=seed)


def run_serve(workload: Workload, arm: Arm, seed: int,
              rate_tps: Optional[float] = None) -> ArmResult:
    """Open loop: Poisson arrivals on their own (simulated) clock into a
    bounded queue and a server pool; optionally a governed fleet."""
    config = workload_config(workload, seed)
    system = _system(workload, arm)
    db, layout = Database.with_workload(config, system=system)
    engine = db.engine
    layer = ServingLayer(engine, layout,
                         serve_config(workload, seed, rate_tps), config)
    fleet = governor = None
    if arm.options.get("fleet"):
        governor = ReorgGovernor(engine.sim, GovernorConfig())
        claims = list(range(1, workload.options["fleet_partitions"] + 1))
        fleet = ReorgFleet(
            engine, claims,
            FleetConfig(workers=workload.options["fleet_workers"],
                        algorithm=arm.algorithm),
            governor=governor, layout=layout)
    metrics = layer.run(fleet=fleet, governor=governor)
    reorg_stats = list(fleet.stats.values()) if fleet is not None else []
    in_flight = (metrics.arrivals - metrics.shed - metrics.completed
                 - metrics.retry_budget_exhausted)
    failed = (metrics.shed + metrics.deadline_misses
              + metrics.retry_budget_exhausted + in_flight)
    result = _finish(arm, db, metrics, reorg_stats,
                     attempted=metrics.arrivals, failed=failed)
    result.counts.update({
        "serve.shed_share": _per(metrics.shed, metrics.arrivals),
        "serve.deadline_miss_share": _per(metrics.deadline_misses,
                                          metrics.arrivals),
        "serve.queue_wait_ms": metrics.avg_queue_wait_ms,
        "serve.lease_takeovers": (fleet.leases.takeovers
                                  if fleet is not None else 0),
        "serve.governor_paused_ms": (governor.paused_ms
                                     if governor is not None else 0.0),
    })
    return result


def run_chaos(workload: Workload, arm: Arm, seed: int,
              window: Tuple[float, float]) -> ArmResult:
    """Crash at evenly spaced instants inside the primary arm's
    reorganization window; each point recovers from only the flushed
    log bytes, resumes from the WAL-carried state and verifies the graph
    is isomorphic with zero re-migrations.

    ``repro.chaos_sweep`` would first *probe* the window by simulating
    ten minutes of load past the reorganization's end (~80 % of a
    4-point sweep's host time); the primary arm already ran the same
    seeded timeline, so its window is used instead.
    """
    config = workload_config(workload, seed)
    reorg_config = ReorgConfig(
        checkpoint_every=workload.options["checkpoint_every"])
    points = workload.options["chaos_points"]
    start, end = window
    report = _faults.ChaosReport(algorithm=arm.algorithm, seed=seed)
    for index in range(points):
        crash_at = start + (end - start) * (index + 1) / (points + 1)
        report.points.append(_faults.run_chaos_point(
            crash_at, algorithm=arm.algorithm, workload=config,
            reorg_config=reorg_config, seed=seed))
    good = sum(1 for point in report.points if point.ok)
    return ArmResult(
        name=arm.name, role=arm.role, summary=dict(report.summary()),
        sim_counters={}, attempted=points, failed=points - good,
        checks=[("chaos_all_ok", report.all_ok),
                ("chaos_resume_demonstrated", report.resume_demonstrated)],
        counts={
            "faults.points_ok_share": _per(good, points),
            "faults.resumed_share": _per(
                sum(1 for point in report.points if point.resumed), points),
        })


def run_arm(workload: Workload, arm: Arm, seed: int,
            primary: Optional[ArmResult]) -> ArmResult:
    """Run one arm on a fresh database.  ``primary`` is the already-run
    primary arm (``None`` while running the primary itself)."""
    if arm.runner == "chaos":
        return run_chaos(workload, arm, seed, primary.reorg_window)
    if arm.runner == "serve":
        return run_serve(workload, arm, seed)
    horizon = None
    if arm.algorithm is None:
        horizon = min(primary.window_ms, workload.baseline_cap_ms)
    return run_closed(workload, arm, seed, horizon)


def deep_check(result: ArmResult) -> Tuple[str, bool]:
    """The expensive every-surface sweep, run on the last rep's primary."""
    return "deep_verify", _repro.deep_verify(result.engine).ok


def paper_tput_err_pct(tput_by_arm: Dict[str, float]) -> float:
    """Mean relative throughput error against the published Table 2."""
    errors = [abs(tput_by_arm[arm] - paper) / paper
              for arm, paper in PAPER_TABLE2_TPS.items()
              if arm in tput_by_arm]
    return 100.0 * sum(errors) / len(errors) if errors else 0.0


# -- trace points -------------------------------------------------------------

#: ``(process-name prefix, layer)`` of a spawned process's own code.
PROCESS_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("thread-", "workload"), ("reorganizer", "workload"),
    ("server-", "serve"), ("arrivals", "serve"), ("reorg-worker", "serve"),
    ("reorg-governor", "serve"), ("fleet-lease-reaper", "serve"),
    ("resumed-reorg", "core"), ("reorg-", "core"),
    ("checkpointer", "faults"),
)


def _recovery_counts(args: tuple, _result: object) -> Dict[str, float]:
    stats = args[0].stats
    return {"wal.records_analyzed": stats.records_analyzed,
            "wal.records_redone": stats.records_redone}


def trace_points() -> List[TracePoint]:
    """Every public entry point the traced run wraps, by layer."""
    points: List[TracePoint] = [
        TracePoint(Simulator, "run", "sim", kind="run"),
        TracePoint(Simulator, "spawn", "sim", kind="spawn"),
        TracePoint(Resource, "use", "sim", kind="gen",
                   label=lambda args: args[0].name),
        TracePoint(LogManager, "append", "wal"),
        TracePoint(LogManager, "flush", "wal", kind="gen"),
        TracePoint(RecoveryManager, "run", "wal", capture=_recovery_counts),
        TracePoint(LogAnalyzer, "process", "refs"),
        TracePoint(BufferPool, "fix", "storage", kind="gen"),
        TracePoint(MergeReorganizer, "run", "mvcc", kind="gen"),
        TracePoint(MvccTier, "read", "mvcc", kind="gen"),
        TracePoint(MvccTier, "commit", "mvcc", kind="gen"),
        TracePoint(MvccTier, "verify", "workload"),
        TracePoint(IncrementalReorganizer, "run", "core", kind="gen"),
        TracePoint(PartitionQuiesceReorganizer, "run", "core", kind="gen"),
        TracePoint(WalReorgStateStore, "save", "core"),
        TracePoint(ServingLayer, "run", "serve"),
        TracePoint(WorkloadDriver, "run", "workload"),
        TracePoint(Database, "with_workload", "workload"),
        TracePoint(ExperimentMetrics, "summary", "workload"),
        TracePoint(StorageEngine, "verify_integrity", "engine"),
        TracePoint(StorageEngine, "take_checkpoint", "engine"),
        TracePoint(StorageEngine, "recover", "engine"),
        TracePoint(_repro, "deep_verify", "engine"),
        TracePoint(_faults, "run_chaos_point", "faults"),
        TracePoint(_faults.FaultInjector, "attach", "faults"),
    ]
    for manager, layer in ((LockManager, "concurrency"),
                           (HierarchicalLockManager, "hlock")):
        points += [TracePoint(manager, "try_acquire", layer),
                   TracePoint(manager, "acquire_wait", layer, kind="gen"),
                   TracePoint(manager, "release", layer),
                   TracePoint(manager, "release_all", layer)]
    points += [TracePoint(ObjectStore, attr, "storage") for attr in (
        "read_object", "read_object_with_children", "children_tuple",
        "read_raw", "get_payload", "get_ref", "set_payload_bytes",
        "set_ref", "set_page_lsn", "replace_object", "allocate_object",
        "allocate_object_at", "free_object")]
    points += [TracePoint(ExtendibleHashIndex, attr, "index") for attr in (
        "insert", "get", "remove", "remove_key", "contains")]
    points += [TracePoint(Transaction, attr, "txn", kind="gen") for attr in (
        "read", "read_refs", "write_payload", "update_ref",
        "create_object", "delete_object", "commit", "abort")]
    points += [TracePoint(SnapshotTransaction, attr, "mvcc", kind="gen")
               for attr in ("read", "write_payload", "update_ref",
                            "commit", "abort")]
    return points


def surface_listing() -> str:
    lines = ["# symbols bound (module.name)"]
    lines += sorted(SURFACE)
    lines.append("# entry points wrapped by the traced run (layer)")
    lines += [f"{point.name} ({point.layer})" for point in trace_points()]
    lines.append("# public counters and attributes read")
    lines += COUNTERS
    return "\n".join(lines)


# -- micro-benchmarks ---------------------------------------------------------
# Each fixture returns ``(run, ops)``: calling ``run()`` performs ``ops``
# operations of one layer's public API on a small private fixture, and
# may return further per-layer metrics it counted along the way.

Micro = Tuple[Callable[[], Optional[Dict[str, float]]], int]

_ZERO_COST = dict(cpu_object_access_ms=0.0, cpu_update_extra_ms=0.0)


def _oids(pages: int, slots: int, partition: int = 1) -> List[Oid]:
    return [Oid(partition, page, slot)
            for page in range(pages) for slot in range(slots)]


def _micro_dispatch(policy: bool) -> Micro:
    sim = Simulator()
    if policy:
        sim.set_policy(SchedulerPolicy())
    procs, steps = 10, 4000

    def ticker(index: int):
        delay = Delay(1.0 + index * 0.01)
        for _ in range(steps):
            yield delay

    def run() -> None:
        for index in range(procs):
            sim.spawn(ticker(index))
        sim.run()
    return run, procs * steps


def _micro_lock_pairs(manager_factory: Callable[[Simulator], LockManager],
                      pages: int, slots: int, txns: int) -> Micro:
    manager = manager_factory(Simulator())
    keys = _oids(pages, slots)

    def run() -> None:
        acquire, release = manager.try_acquire, manager.release_all
        done = manager.transaction_finished
        for tid in range(1, txns + 1):
            for key in keys:
                acquire(tid, key, LockMode.S)
            release(tid)
            done(tid)
    return run, txns * len(keys)


def _micro_lock_contended() -> Micro:
    sim = Simulator()
    manager = LockManager(sim)
    keys = _oids(1, 4)
    workers, steps = 8, 500

    def worker(tid: int):
        for step in range(steps):
            key = keys[(tid + step) % len(keys)]
            yield from manager.acquire(tid, key, LockMode.X)
            yield Delay(1.0)
            manager.release(tid, key)

    def run() -> None:
        for tid in range(1, workers + 1):
            sim.spawn(worker(tid))
        sim.run()
    return run, workers * steps


def _micro_escalate() -> Micro:
    manager = HierarchicalLockManager(Simulator(), escalate_after=3)
    keys = _oids(1, 4)
    txns = 700

    def run() -> None:
        for tid in range(1, txns + 1):
            for key in keys:
                manager.try_acquire(tid, key, LockMode.S)
            manager.release_all(tid)
            manager.transaction_finished(tid)
    return run, txns


def _payload_records(count: int) -> List[object]:
    oids = _oids(8, 16)
    return [PayloadUpdateRecord(7, 0, oid=oids[i % len(oids)], offset=4,
                                before=b"abcd", after=b"wxyz")
            for i in range(count)]


def _micro_wal_append() -> Micro:
    sim = Simulator()
    log = LogManager(sim, Resource(sim, name="log-disk"), flush_time_ms=8.0)
    records = _payload_records(40000)

    def run() -> None:
        append = log.append
        for record in records:
            append(record)
    return run, len(records)


def _micro_wal_decode() -> Micro:
    encoded = [record.encode() for record in _payload_records(12000)]

    def run() -> None:
        for payload in encoded:
            decode_record(payload, lsn=1)
    return run, len(encoded)


def _micro_analyze() -> Micro:
    erts: Dict[int, object] = {}

    def ert_for(pid: int):
        if pid not in erts:
            erts[pid] = ExternalReferenceTable(pid)
        return erts[pid]

    analyzer = LogAnalyzer(ert_for)
    parents, children = _oids(4, 16, partition=1), _oids(4, 16, partition=2)
    records = []
    for parent, child in zip(parents, children):
        records.append(RefUpdateRecord(7, 0, parent=parent, slot=4,
                                       old_child=None, new_child=child))
        records.append(RefUpdateRecord(7, 0, parent=parent, slot=4,
                                       old_child=child, new_child=None))
    records *= 200

    def run() -> None:
        process = analyzer.process
        for record in records:
            process(record)
    return run, len(records)


def _store_fixture(objects: int = 200) -> Tuple[ObjectStore, List[Oid]]:
    store = ObjectStore()
    store.create_partition(1)
    image = ObjectImage.new(6, payload=bytes(48))
    return store, [store.allocate_object(1, image) for _ in range(objects)]


def _micro_store_read() -> Micro:
    store, oids = _store_fixture()
    rounds = 400

    def run() -> None:
        read = store.read_object
        for _ in range(rounds):
            for oid in oids:
                read(oid)
    return run, rounds * len(oids)


def _micro_store_write() -> Micro:
    store, oids = _store_fixture()
    rounds = 30

    def run() -> None:
        write = store.set_payload_bytes
        for _ in range(rounds):
            for oid in oids:
                write(oid, 4, b"wxyz")
    return run, rounds * len(oids)


def _micro_store_alloc_free() -> Micro:
    store, _ = _store_fixture()
    image = ObjectImage.new(6, payload=bytes(48))
    count = 3000

    def run() -> None:
        for _ in range(count):
            store.free_object(store.allocate_object(1, image))
    return run, count


def _micro_fix(miss: bool) -> Micro:
    sim = Simulator()
    pool = BufferPool(sim, Resource(sim, name="data-disk"),
                      capacity_pages=8, read_ms=10.0, write_ms=10.0)
    keys = [(1, page) for page in range(32 if miss else 8)]
    rounds = 200 if miss else 12000

    def fixer():
        for _ in range(rounds):
            for key in keys:
                yield from pool.fix(key)

    def run() -> None:
        sim.spawn(fixer())
        sim.run()
    return run, rounds * len(keys)


def _micro_index() -> Micro:
    index = ExtendibleHashIndex(bucket_capacity=8)
    keys = _oids(16, 16)
    rounds = 40

    def run() -> None:
        for _ in range(rounds):
            for key in keys:
                index.insert(key, key)
            for key in keys:
                index.get(key)
            for key in keys:
                index.remove(key, key)
    return run, rounds * 3 * len(keys)


def _small_database(mvcc: bool = False):
    config = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                            mpl=1, seed=7)
    db, layout = Database.with_workload(config,
                                        system=SystemConfig(**_ZERO_COST))
    if mvcc:
        MvccTier.attach(db.engine, MvccConfig())
    return db, sorted(db.engine.store.live_oids(1))


def _micro_txn(op: str) -> Micro:
    db, oids = _small_database()
    engine = db.engine
    rounds = {"read": 60, "update": 24, "commit": 15}[op]

    def body():
        for _ in range(rounds):
            if op == "commit":
                for oid in oids:
                    txn = engine.txns.begin()
                    yield from txn.read_refs(oid)
                    yield from txn.commit()
                continue
            txn = engine.txns.begin()
            for oid in oids:
                if op == "read":
                    yield from txn.read(oid)
                else:
                    yield from txn.write_payload(oid, 4, b"wxyz")
            yield from txn.commit()

    def run() -> None:
        db.run(body())
    return run, rounds * len(oids)


def _micro_mvcc(op: str) -> Micro:
    db, oids = _small_database(mvcc=True)
    engine = db.engine
    rounds = 48 if op == "read" else 10

    def body():
        for _ in range(rounds):
            if op == "read":
                txn = begin_snapshot_txn(engine)
                for oid in oids:
                    yield from txn.read(oid)
                yield from txn.commit()
                continue
            for oid in oids:
                txn = begin_snapshot_txn(engine)
                yield from txn.write_payload(oid, 4, b"wxyz")
                yield from txn.commit()

    def run() -> None:
        db.run(body())
    return run, rounds * len(oids)


def _micro_ckpt_encode() -> Micro:
    order = _oids(20, 17)
    state = ReorgState(
        algorithm="ira", partition_id=1, order=order,
        parents={oid: {order[i - 1], order[i - 2]}
                 for i, oid in enumerate(order)},
        mapping={oid: Oid(1, oid.page + 100, oid.slot)
                 for oid in order[:len(order) // 2]},
        migrated=set(order[:len(order) // 2]),
        allocated_at_traversal=set(order), log_lsn=1234)
    count = 25

    def run() -> None:
        for _ in range(count):
            encode_reorg_state(state)
    return run, count


_BUILD_CONFIG = dict(num_partitions=3, objects_per_partition=340, mpl=1)


def _micro_build() -> Micro:
    config = WorkloadConfig(seed=7, **_BUILD_CONFIG)

    def run() -> None:
        Database.with_workload(config)
    return run, 1


def _micro_build_objects() -> Micro:
    run, _ = _micro_build()
    return run, (_BUILD_CONFIG["num_partitions"]
                 * _BUILD_CONFIG["objects_per_partition"])


def _micro_summary() -> Micro:
    rng = random.Random(7)
    records = [TransactionRecord(i % 30, float(i), i + rng.uniform(5, 900), 0)
               for i in range(3000)]
    count = 30

    def run() -> None:
        for _ in range(count):
            metrics = ExperimentMetrics(algorithm="nr", mpl=30,
                                        window_ms=3000.0)
            metrics.records = records
            metrics.summary()
    return run, count


def _micro_dist() -> Micro:
    config = DistConfig(node_count=3, objects_per_partition=24,
                        remote_ref_fraction=0.25)

    def run() -> Dict[str, float]:
        cluster = DistCluster(config).build()
        cluster.reorganize_all()
        if not cluster.run_until_reorgs_done():
            raise RuntimeError("dist layer pass did not complete")
        problems = cluster_deep_verify(cluster)
        if problems:
            raise RuntimeError(f"dist layer pass not clean: {problems[:3]}")
        rounds = sum(node.reorg.tpc_rounds for node in cluster.nodes)
        return {"dist.msgs_per_2pc_round": _per(cluster.net.stats.sent,
                                                rounds)}
    return run, 1


#: Per-layer [m] metric name -> fixture factory.
MICRO: Dict[str, Callable[[], Micro]] = {
    "sim.dispatch_ops_s": lambda: _micro_dispatch(policy=False),
    "sim.policy_dispatch_ops_s": lambda: _micro_dispatch(policy=True),
    "concurrency.pair_ops_s": lambda: _micro_lock_pairs(
        LockManager, pages=2, slots=4, txns=3500),
    "concurrency.contended_ops_s": _micro_lock_contended,
    "hlock.pair_ops_s": lambda: _micro_lock_pairs(
        lambda sim: HierarchicalLockManager(sim), pages=8, slots=1,
        txns=300),
    "hlock.escalate_ops_s": _micro_escalate,
    "wal.append_ops_s": _micro_wal_append,
    "wal.decode_ops_s": _micro_wal_decode,
    "refs.analyze_ops_s": _micro_analyze,
    "storage.read_ops_s": _micro_store_read,
    "storage.write_ops_s": _micro_store_write,
    "storage.alloc_free_ops_s": _micro_store_alloc_free,
    "storage.fix_hit_ops_s": lambda: _micro_fix(miss=False),
    "storage.fix_miss_ops_s": lambda: _micro_fix(miss=True),
    "index.put_get_ops_s": _micro_index,
    "txn.read_ops_s": lambda: _micro_txn("read"),
    "txn.update_ops_s": lambda: _micro_txn("update"),
    "txn.commit_ops_s": lambda: _micro_txn("commit"),
    "core.ckpt_encode_ops_s": _micro_ckpt_encode,
    "mvcc.snapshot_read_ops_s": lambda: _micro_mvcc("read"),
    "mvcc.commit_ops_s": lambda: _micro_mvcc("commit"),
    "workload.build_s": _micro_build,
    "workload.build_objs_s": _micro_build_objects,
    "workload.summary_ms": _micro_summary,
    "dist.reorg_run_s": _micro_dist,
}


#: Offered rates (tps) the serving layer pass tries, ascending.
MAX_RATE_POINTS = (20.0, 30.0, 36.0)
MAX_RATE_P99_LIMIT_MS = 3000.0
MAX_RATE_FAIL_LIMIT = 0.01


def serve_max_rate_tps(workload: Workload, seed: int) -> float:
    """Highest offered rate at which the governed-fleet arm keeps p99
    within the limit and sheds or misses at most 1 % (0 if none does)."""
    best = 0.0
    for rate in MAX_RATE_POINTS:
        result = run_serve(workload, workload.primary, seed, rate_tps=rate)
        p99 = percentile(sorted(result.responses), 99.0)
        fail_share = _per(result.failed, result.attempted)
        if p99 <= MAX_RATE_P99_LIMIT_MS and fail_share <= MAX_RATE_FAIL_LIMIT:
            best = rate
    return best
