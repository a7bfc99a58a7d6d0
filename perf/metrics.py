"""The metric catalogue: every end-to-end and per-layer metric by name.

``BENCHMARK.json`` lists the same names, units and directions (its format
allows nothing more); what a per-layer metric is *expected to move* lives
here, written down before anything was measured, and is checked by
``perf/tests``.

``kind`` says whose time a number is: **sim** is what the modelled
167 MHz system would do (deterministic at a seed), **host** is what
CPython spends running the simulator (noisy; calibrated seconds).
``source`` says where a per-layer number comes from: **c** exact public
counters read after a run, **t** the traced run, **m** a micro-benchmark
calling one layer's public functions in a tight loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    kind: str
    #: Share of the parent's median by which it may worsen.
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    source: str
    #: ``(end-to-end metric, workload)`` pairs a change here should move.
    moves: Tuple[Tuple[str, str], ...]
    #: Where the prediction is *no change* (free text, may be empty).
    flat_on: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("run_s", "s", "lower", "host", 0.20,
             "calibrated seconds of one cycle (every variant's primary and "
             "baseline arm plus the extra arms once: build + run + checks); "
             "median over cycles"),
    EndToEnd("host_txn_per_s", "1/s", "higher", "host", 0.20,
             "committed logical transactions of a cycle's arms per "
             "calibrated second of the cycle (guards run_s against doing "
             "less simulated work); median over cycles"),
    EndToEnd("setup_s", "s", "lower", "host", 0.25,
             "fresh child: interpreter start + import repro + one "
             "Database.with_workload of the workload's config; median "
             "calibrated seconds over the children"),
    EndToEnd("peak_rss_mb", "MiB", "lower", "host", 0.20,
             "worker ru_maxrss after the last rep"),
    EndToEnd("sim_tput_tps", "1/s", "higher", "sim", 0.06,
             "primary arm: commits inside the measurement window per "
             "simulated second, pooled over the variants"),
    EndToEnd("sim_p50_ms", "ms", "lower", "sim", 0.15,
             "primary arm: median response, first submission (or arrival) "
             "to final commit, pooled over the variants"),
    EndToEnd("sim_p99_ms", "ms", "lower", "sim", 0.25,
             "primary arm: p99 response over the pooled variants (n is "
             "printed; sized so at least ten samples lie beyond it)"),
    EndToEnd("sim_interference_x", "x", "lower", "sim", 0.20,
             "primary mean response over baseline mean response — what "
             "on-line reorganization costs concurrent transactions (1.00 = "
             "nothing; the paper's Table 2 avg-RT comparison); printed also "
             "as a percentage and, ungated, on p99"),
    EndToEnd("sim_reorg_s", "s", "lower", "sim", 0.25,
             "primary arm: simulated seconds from reorganization start to "
             "its last partition finishing, mean over the variants"),
)

E2E_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}

_ALL = ("table2_mem", "disk_walk", "scan_hier", "mvcc_merge",
        "serve_fleet", "crash_recover")


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, w) for w in (workloads or _ALL))


PER_LAYER: Tuple[PerLayer, ...] = (
    # -- sim: the discrete-event kernel ---------------------------------------
    PerLayer("sim.events_per_txn", "count", "lower", "c",
             _on("run_s") + _on("host_txn_per_s"), "setup_s"),
    PerLayer("sim.cancelled_per_txn", "count", "lower", "c",
             _on("run_s", "table2_mem", "scan_hier"), "setup_s"),
    PerLayer("sim.heap_peak", "count", "lower", "c",
             _on("peak_rss_mb", "scan_hier"), "setup_s"),
    PerLayer("sim.self_share", "ratio", "lower", "t",
             _on("run_s", "disk_walk", "table2_mem"), "setup_s"),
    PerLayer("sim.us_per_event", "us", "lower", "t",
             _on("run_s", "disk_walk") + _on("host_txn_per_s", "disk_walk"),
             "setup_s"),
    PerLayer("sim.cpu_queue_ms_per_txn", "ms", "lower", "t",
             _on("sim_p50_ms", "table2_mem", "serve_fleet"), "setup_s"),
    PerLayer("sim.dispatch_ops_s", "1/s", "higher", "m",
             _on("run_s", "disk_walk"), "setup_s"),
    PerLayer("sim.policy_dispatch_ops_s", "1/s", "higher", "m",
             (), "every workload (no scheduler policy is installed)"),
    # -- concurrency: the flat lock manager -----------------------------------
    PerLayer("concurrency.acquires_per_txn", "count", "lower", "c",
             _on("run_s", "scan_hier", "table2_mem"), "mvcc_merge"),
    PerLayer("concurrency.waits_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "table2_mem", "scan_hier"), "mvcc_merge"),
    PerLayer("concurrency.timeouts_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "table2_mem", "scan_hier"), "mvcc_merge"),
    PerLayer("concurrency.table_peak", "count", "lower", "c",
             _on("peak_rss_mb", "scan_hier"), "mvcc_merge"),
    PerLayer("concurrency.wait_ms_per_txn", "ms", "lower", "c",
             _on("sim_p99_ms", "table2_mem", "scan_hier")
             + _on("sim_interference_x", "table2_mem", "scan_hier"),
             "mvcc_merge"),
    PerLayer("concurrency.self_share", "ratio", "lower", "t",
             _on("run_s", "scan_hier", "table2_mem"), "mvcc_merge"),
    PerLayer("concurrency.pair_ops_s", "1/s", "higher", "m",
             _on("run_s", "table2_mem", "scan_hier"), "mvcc_merge"),
    PerLayer("concurrency.contended_ops_s", "1/s", "higher", "m",
             _on("run_s", "scan_hier"), "mvcc_merge"),
    # -- hlock: the hierarchical lock manager ---------------------------------
    PerLayer("hlock.escalations_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "scan_hier"), "every other workload (0)"),
    PerLayer("hlock.deescalations_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "scan_hier"), "every other workload (0)"),
    PerLayer("hlock.self_share", "ratio", "lower", "t",
             _on("run_s", "scan_hier") + _on("peak_rss_mb", "scan_hier"),
             "every other workload (0)"),
    PerLayer("hlock.pair_ops_s", "1/s", "higher", "m",
             _on("run_s", "scan_hier"), "every other workload"),
    PerLayer("hlock.escalate_ops_s", "1/s", "higher", "m",
             _on("run_s", "scan_hier"), "every other workload"),
    # -- wal: log append/flush and ARIES recovery -----------------------------
    PerLayer("wal.records_per_txn", "count", "lower", "c",
             _on("run_s", "table2_mem", "serve_fleet"), "mvcc_merge reads"),
    PerLayer("wal.bytes_per_txn", "B", "lower", "c",
             _on("peak_rss_mb", "table2_mem", "serve_fleet"),
             "mvcc_merge reads"),
    PerLayer("wal.flushes_per_txn", "count", "lower", "c",
             _on("sim_p50_ms", "table2_mem"), "mvcc_merge reads"),
    PerLayer("wal.redo_share", "ratio", "lower", "t",
             _on("run_s", "crash_recover"),
             "every workload but crash_recover (0: no recovery runs)"),
    PerLayer("wal.io_retries", "count", "lower", "c",
             (), "every workload (no I/O faults are injected)"),
    PerLayer("wal.self_share", "ratio", "lower", "t",
             _on("run_s", "table2_mem", "serve_fleet", "crash_recover"),
             "mvcc_merge reads"),
    PerLayer("wal.flush_ms_per_txn", "ms", "lower", "t",
             _on("sim_p50_ms", "table2_mem", "crash_recover"), ""),
    PerLayer("wal.recover_records_s", "1/s", "higher", "t",
             _on("run_s", "crash_recover"),
             "every workload but crash_recover (0: not reported)"),
    PerLayer("wal.append_ops_s", "1/s", "higher", "m",
             _on("run_s", "table2_mem", "serve_fleet"), "mvcc_merge reads"),
    PerLayer("wal.decode_ops_s", "1/s", "higher", "m",
             _on("run_s", "crash_recover"),
             "every workload but crash_recover"),
    # -- refs: log analyzer, ERT, TRT -----------------------------------------
    PerLayer("refs.analyzed_per_txn", "count", "lower", "c",
             _on("run_s", "table2_mem", "crash_recover"), "mvcc_merge"),
    PerLayer("refs.trt_peak", "count", "lower", "c",
             _on("sim_reorg_s", "table2_mem"), "mvcc_merge"),
    PerLayer("refs.self_share", "ratio", "lower", "t",
             _on("run_s", "table2_mem", "crash_recover"), "mvcc_merge"),
    PerLayer("refs.analyze_ops_s", "1/s", "higher", "m",
             _on("run_s", "table2_mem", "crash_recover"), "mvcc_merge"),
    # -- storage: pages, object store, buffer pool ----------------------------
    PerLayer("storage.fixes_per_txn", "count", "lower", "c",
             _on("run_s", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.hit_ratio", "ratio", "higher", "c",
             _on("sim_tput_tps", "disk_walk") + _on("sim_p99_ms", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.misses_per_txn", "count", "lower", "c",
             _on("sim_tput_tps", "disk_walk") + _on("run_s", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.evictions_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.writebacks_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.coalesced_share", "ratio", "higher", "c",
             _on("sim_tput_tps", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.space_per_live_byte", "ratio", "lower", "c",
             _on("peak_rss_mb"), ""),
    PerLayer("storage.self_share", "ratio", "lower", "t",
             _on("run_s") + _on("setup_s"), ""),
    PerLayer("storage.io_ms_per_txn", "ms", "lower", "t",
             _on("sim_p99_ms", "disk_walk") + _on("sim_tput_tps", "disk_walk"),
             "the five memory-resident workloads (0)"),
    PerLayer("storage.read_ops_s", "1/s", "higher", "m", _on("run_s"), ""),
    PerLayer("storage.write_ops_s", "1/s", "higher", "m", _on("run_s"), ""),
    PerLayer("storage.alloc_free_ops_s", "1/s", "higher", "m",
             _on("setup_s") + _on("run_s", "table2_mem"), ""),
    PerLayer("storage.fix_hit_ops_s", "1/s", "higher", "m",
             _on("run_s", "disk_walk"), "memory-resident workloads"),
    PerLayer("storage.fix_miss_ops_s", "1/s", "higher", "m",
             _on("run_s", "disk_walk"), "memory-resident workloads"),
    # -- index: extendible hashing under ERT/TRT ------------------------------
    PerLayer("index.self_share", "ratio", "lower", "t",
             _on("run_s", "disk_walk", "crash_recover"), "mvcc_merge"),
    PerLayer("index.put_get_ops_s", "1/s", "higher", "m",
             _on("run_s", "disk_walk", "crash_recover"), "mvcc_merge"),
    # -- txn: 2PL transactions ------------------------------------------------
    PerLayer("txn.ops_per_txn", "count", "lower", "t",
             _on("run_s", "table2_mem", "disk_walk", "scan_hier"),
             "mvcc_merge (snapshot path)"),
    PerLayer("txn.commit_ratio", "ratio", "higher", "c",
             _on("sim_tput_tps", "serve_fleet", "scan_hier"),
             "mvcc_merge (snapshot path)"),
    PerLayer("txn.retries_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "table2_mem", "scan_hier", "serve_fleet"),
             "mvcc_merge (snapshot path)"),
    PerLayer("txn.self_share", "ratio", "lower", "t",
             _on("run_s", "table2_mem", "disk_walk", "scan_hier"),
             "mvcc_merge (snapshot path)"),
    PerLayer("txn.read_ops_s", "1/s", "higher", "m",
             _on("run_s", "table2_mem", "disk_walk", "scan_hier"),
             "mvcc_merge"),
    PerLayer("txn.update_ops_s", "1/s", "higher", "m",
             _on("run_s", "table2_mem", "crash_recover"), "mvcc_merge"),
    PerLayer("txn.commit_ops_s", "1/s", "higher", "m",
             _on("run_s", "table2_mem", "serve_fleet"), "mvcc_merge"),
    # -- core: the reorganizers and their checkpoints -------------------------
    PerLayer("core.objects_migrated", "count", "higher", "c",
             _on("sim_reorg_s"), ""),
    PerLayer("core.patches_per_object", "count", "lower", "c",
             _on("sim_reorg_s"), "mvcc_merge (lineage: no parent patches)"),
    PerLayer("core.max_locks_held", "count", "lower", "c",
             _on("sim_interference_x", "table2_mem", "serve_fleet"),
             "mvcc_merge"),
    PerLayer("core.deadlock_retries", "count", "lower", "c",
             _on("sim_reorg_s", "table2_mem", "scan_hier", "serve_fleet"),
             "mvcc_merge"),
    PerLayer("core.paper_tput_err_pct", "%", "lower", "c",
             _on("sim_tput_tps", "table2_mem"),
             "every other workload (0: no published reference, "
             "unvalidated)"),
    PerLayer("core.self_share", "ratio", "lower", "t",
             _on("run_s", "serve_fleet", "crash_recover", "table2_mem"), ""),
    PerLayer("core.ckpt_share", "ratio", "lower", "t",
             _on("run_s", "serve_fleet", "crash_recover"),
             "table2_mem, disk_walk, scan_hier, mvcc_merge (0)"),
    PerLayer("core.migrated_per_s", "1/s", "higher", "t",
             _on("run_s", "serve_fleet", "crash_recover"), ""),
    PerLayer("core.ckpt_encode_ops_s", "1/s", "higher", "m",
             _on("run_s", "serve_fleet", "crash_recover"),
             "table2_mem, disk_walk, scan_hier, mvcc_merge"),
    # -- mvcc: version chains, snapshots, merge -------------------------------
    PerLayer("mvcc.tail_read_share", "ratio", "lower", "c",
             _on("run_s", "mvcc_merge"), "every other workload (0)"),
    PerLayer("mvcc.conflicts_per_txn", "count", "lower", "c",
             _on("sim_p99_ms", "mvcc_merge"), "every other workload (0)"),
    PerLayer("mvcc.versions_pruned", "count", "higher", "c",
             _on("peak_rss_mb", "mvcc_merge"), "every other workload (0)"),
    PerLayer("mvcc.self_share", "ratio", "lower", "t",
             _on("run_s", "mvcc_merge") + _on("sim_p99_ms", "mvcc_merge"),
             "every other workload (0)"),
    PerLayer("mvcc.snapshot_read_ops_s", "1/s", "higher", "m",
             _on("run_s", "mvcc_merge"), "every other workload"),
    PerLayer("mvcc.commit_ops_s", "1/s", "higher", "m",
             _on("run_s", "mvcc_merge"), "every other workload"),
    # -- serve: admission, leases, governor -----------------------------------
    PerLayer("serve.shed_share", "ratio", "lower", "c",
             _on("sim_tput_tps", "serve_fleet"), "every other workload (0)"),
    PerLayer("serve.deadline_miss_share", "ratio", "lower", "c",
             _on("sim_p99_ms", "serve_fleet"), "every other workload (0)"),
    PerLayer("serve.queue_wait_ms", "ms", "lower", "c",
             _on("sim_p99_ms", "serve_fleet") + _on("sim_p50_ms", "serve_fleet"),
             "every other workload (0)"),
    PerLayer("serve.lease_takeovers", "count", "lower", "c",
             _on("sim_reorg_s", "serve_fleet"), "every other workload (0)"),
    PerLayer("serve.governor_paused_ms", "ms", "lower", "c",
             _on("sim_reorg_s", "serve_fleet"), "every other workload (0)"),
    PerLayer("serve.max_rate_tps", "1/s", "higher", "m",
             _on("sim_p99_ms", "serve_fleet"), "every other workload"),
    PerLayer("serve.self_share", "ratio", "lower", "t",
             _on("run_s", "serve_fleet"), "every other workload (0)"),
    # -- faults: injector and the crash/recover/resume harness ----------------
    PerLayer("faults.points_ok_share", "ratio", "higher", "c",
             (), "every workload but crash_recover (0: no chaos points)"),
    PerLayer("faults.resumed_share", "ratio", "higher", "c",
             (), "every workload but crash_recover (0: no chaos points)"),
    PerLayer("faults.self_share", "ratio", "lower", "t",
             _on("run_s", "crash_recover"), "every other workload (0)"),
    # -- dist: layer pass only, no end-to-end workload ------------------------
    PerLayer("dist.reorg_run_s", "s", "lower", "m", (), ""),
    PerLayer("dist.msgs_per_2pc_round", "count", "lower", "m", (), ""),
    # -- workload: graph load, driver, metrics --------------------------------
    PerLayer("workload.build_share", "ratio", "lower", "t",
             _on("run_s", "table2_mem", "mvcc_merge"), "sim_*"),
    PerLayer("workload.verify_share", "ratio", "lower", "t",
             _on("run_s"), "sim_*"),
    PerLayer("workload.self_share", "ratio", "lower", "t",
             _on("run_s"), "sim_*"),
    PerLayer("workload.build_s", "s", "lower", "m",
             _on("setup_s") + _on("run_s", "table2_mem"), "sim_*"),
    PerLayer("workload.build_objs_s", "1/s", "higher", "m",
             _on("setup_s") + _on("run_s", "table2_mem"), "sim_*"),
    PerLayer("workload.summary_ms", "ms", "lower", "m",
             _on("run_s"), "sim_*"),
    # -- engine and the attribution residue -----------------------------------
    PerLayer("engine.self_share", "ratio", "lower", "t", _on("run_s"), ""),
    PerLayer("trace.other_share", "ratio", "lower", "t", (), ""),
    PerLayer("trace.spans_per_txn", "count", "lower", "t", (), ""),
    PerLayer("trace.overhead_x", "x", "lower", "t", (), ""),
)

PER_LAYER_BY_NAME: Dict[str, PerLayer] = {m.name: m for m in PER_LAYER}

#: Layers whose traced self time is reported as ``<layer>.self_share``.
SHARE_LAYERS: Tuple[str, ...] = tuple(
    m.layer for m in PER_LAYER if m.name.endswith(".self_share"))


def manifest_entries() -> Dict[str, list]:
    """The ``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
