"""Experiment metrics: throughput, response times and their dispersion.

The paper evaluates throughput (tps) and average response time, and —
Table 2 — the maximum and standard deviation of response times, which is
where PQR's "several orders of magnitude" worse predictability shows.
Response time is measured from first submission to final commit,
*including* retries after timeout-induced aborts (that is how a blocked
transaction under PQR accrues a ~100 s response time despite the
1-second lock timeout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class TransactionRecord:
    """One logical transaction as seen by a submitting thread."""

    thread_id: int
    started_ms: float
    finished_ms: float
    retries: int

    @property
    def response_ms(self) -> float:
        return self.finished_ms - self.started_ms


@dataclass
class ExperimentMetrics:
    """Aggregated results of one experiment run."""

    algorithm: str
    mpl: int
    #: Measurement window (ms of simulated time).
    window_ms: float = 0.0
    records: List[TransactionRecord] = field(default_factory=list)
    aborts: int = 0
    #: Aborts caused by deadlock handling (lock timeouts + waits-for
    #: victims) — a subset of ``aborts``.
    deadlock_aborts: int = 0
    #: Requests the waits-for detector victimized (0 under the paper's
    #: pure-timeout scheme).
    deadlock_victims: int = 0
    #: Logical transactions abandoned because their per-request retry
    #: budget ran out (serving layer; distinct from generic aborts).
    retry_budget_exhausted: int = 0
    #: Arrivals refused by admission control (serving layer).
    shed: int = 0
    #: Admitted requests that blew their end-to-end deadline.
    deadline_misses: int = 0
    reorg_duration_ms: Optional[float] = None
    reorg_stats: Optional[object] = None
    cpu_utilization: float = 0.0
    lock_waits: int = 0
    lock_timeouts: int = 0
    #: Lock timeouts the fault injector forced (lock-timeout storms) —
    #: a subset of ``lock_timeouts``.
    forced_lock_timeouts: int = 0
    #: Transient I/O errors injected (buffer pool + log flush) and the
    #: retries they cost.
    io_faults: int = 0
    io_retries: int = 0
    #: Buffer-pool counter deltas over this run's window (disk-resident
    #: setting only; ``None`` when the database is memory-resident) —
    #: the placement-quality signal the clustering experiment gates on.
    buffer: Optional[Dict[str, int]] = None
    #: Lock-manager counter summary (manager, acquires, conflicts,
    #: escalations, de-escalations, peak lock-table size), set by every
    #: driver; ``None`` only on metrics no driver produced.
    locks: Optional[Dict[str, object]] = None

    # Derived-statistics caches, keyed on the records generation (its
    # length — records are append-only in practice; a shrink triggers a
    # full rebuild).  ``summary()`` used to rebuild the response-time
    # list four times and ``percentile_response_ms`` re-sorted per call;
    # now each is computed once per generation.  The cached aggregates
    # use the same float expressions as before, so every reported number
    # is bit-identical to the uncached implementation.
    _times_n: int = field(default=0, init=False, repr=False, compare=False)
    _times: List[float] = field(default_factory=list, init=False,
                                repr=False, compare=False)
    _agg: Optional[Tuple[float, float, float, int]] = field(
        default=None, init=False, repr=False, compare=False)
    _sorted: Optional[List[float]] = field(default=None, init=False,
                                           repr=False, compare=False)
    _tps_key: Optional[Tuple[int, float]] = field(default=None, init=False,
                                                  repr=False, compare=False)
    _tps: float = field(default=0.0, init=False, repr=False, compare=False)

    def collect_engine_counters(self, engine,
                                buffer_base: Optional[Dict[str, int]]
                                ) -> None:
        """Copy the engine's lock / deadlock / I/O / buffer / CPU counters
        in at the end of a run (closed-loop driver and serving layer
        alike).  ``buffer_base`` is the pool's ``stats.snapshot()`` from
        the start of the run (``None`` when memory-resident)."""
        lock_stats = engine.locks.stats
        self.lock_waits = lock_stats.waits
        self.lock_timeouts = lock_stats.timeouts
        self.forced_lock_timeouts = lock_stats.forced_timeouts
        self.deadlock_victims = lock_stats.deadlock_victims
        self.locks = engine.locks.counters_summary()
        self.deadlock_aborts = engine.txns.abort_reasons.get("deadlock", 0)
        self.io_faults = engine.log.io_faults
        self.io_retries = engine.log.io_retries
        buffer = engine.buffer
        if buffer is not None:
            self.io_faults += buffer.stats.io_faults
            self.io_retries += buffer.stats.io_retries
            # Windowed deltas: a multi-phase experiment (trace, reorganize,
            # measure) gets each run's own page-fetch accounting.
            self.buffer = buffer.stats.since(buffer_base)
        self.cpu_utilization = engine.cpu.utilization(
            horizon=self.window_ms or None)

    # -- derived metrics -------------------------------------------------------

    def _cached_times(self) -> List[float]:
        n = len(self.records)
        if n != self._times_n:
            if n > self._times_n:
                self._times.extend(r.response_ms
                                   for r in self.records[self._times_n:])
            else:
                self._times = [r.response_ms for r in self.records]
            self._times_n = n
            self._agg = None
            self._sorted = None
            self._tps_key = None
        return self._times

    def _aggregates(self) -> Tuple[float, float, float, int]:
        """``(avg, max, std, retries)`` over the current records."""
        times = self._cached_times()
        if self._agg is None:
            n = len(times)
            avg = sum(times) / n if times else 0.0
            peak = max(times) if times else 0.0
            if n < 2:
                std = 0.0
            else:
                mean = sum(times) / n
                std = math.sqrt(sum((t - mean) ** 2 for t in times)
                                / (n - 1))
            self._agg = (avg, peak, std,
                         sum(r.retries for r in self.records))
        return self._agg

    def _sorted_times(self) -> List[float]:
        times = self._cached_times()
        if self._sorted is None:
            self._sorted = sorted(times)
        return self._sorted

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def total_retries(self) -> int:
        """Timeout-abort retries summed over all logical transactions."""
        return self._aggregates()[3]

    @property
    def reorg_deadlock_retries(self) -> int:
        stats = self.reorg_stats
        return getattr(stats, "deadlock_retries", 0) if stats else 0

    @property
    def reorg_backoff_ms(self) -> float:
        stats = self.reorg_stats
        return getattr(stats, "backoff_ms_total", 0.0) if stats else 0.0

    @property
    def throughput_tps(self) -> float:
        """Transactions per second of simulated time over the window."""
        if self.window_ms <= 0:
            return 0.0
        key = (len(self.records), self.window_ms)
        if self._tps_key != key:
            in_window = sum(1 for r in self.records
                            if r.finished_ms <= self.window_ms)
            self._tps = in_window / (self.window_ms / 1000.0)
            self._tps_key = key
        return self._tps

    def response_times(self) -> List[float]:
        return list(self._cached_times())

    @property
    def avg_response_ms(self) -> float:
        return self._aggregates()[0]

    @property
    def max_response_ms(self) -> float:
        return self._aggregates()[1]

    @property
    def std_response_ms(self) -> float:
        return self._aggregates()[2]

    def percentile_response_ms(self, pct: float) -> float:
        times = self._sorted_times()
        if not times:
            return 0.0
        rank = min(len(times) - 1, max(0, int(round(
            pct / 100.0 * (len(times) - 1)))))
        return times[rank]

    @property
    def p99_response_ms(self) -> float:
        return self.percentile_response_ms(99.0)

    @property
    def p999_response_ms(self) -> float:
        return self.percentile_response_ms(99.9)

    def top_responses(self, n: int = 10) -> List[float]:
        return sorted(self._cached_times(), reverse=True)[:n]

    @property
    def buffer_hit_ratio(self) -> float:
        if not self.buffer:
            return 0.0
        total = self.buffer["hits"] + self.buffer["misses"]
        return self.buffer["hits"] / total if total else 0.0

    @property
    def pages_fetched_per_txn(self) -> float:
        """Page faults per completed transaction over this run's window —
        the paper-style cost of one traversal under the current layout."""
        if not self.buffer or not self.completed:
            return 0.0
        return self.buffer["misses"] / self.completed

    def summary(self) -> Dict[str, float]:
        out = self._base_summary()
        if self.buffer is not None:
            buffer = dict(self.buffer)
            buffer["hit_ratio"] = round(self.buffer_hit_ratio, 4)
            buffer["pages_fetched_per_txn"] = round(
                self.pages_fetched_per_txn, 3)
            out["buffer"] = buffer
        if self.locks is not None:
            out["locks"] = dict(self.locks)
        return out

    def _base_summary(self) -> Dict[str, float]:
        return {
            "algorithm": self.algorithm,
            "mpl": self.mpl,
            "throughput_tps": round(self.throughput_tps, 2),
            "completed": self.completed,
            "aborts": self.aborts,
            "deadlock_aborts": self.deadlock_aborts,
            "deadlock_victims": self.deadlock_victims,
            "retry_budget_exhausted": self.retry_budget_exhausted,
            "shed": self.shed,
            "deadline_misses": self.deadline_misses,
            "retries": self.total_retries,
            "reorg_deadlock_retries": self.reorg_deadlock_retries,
            "reorg_backoff_ms": round(self.reorg_backoff_ms, 1),
            "lock_timeouts": self.lock_timeouts,
            "forced_lock_timeouts": self.forced_lock_timeouts,
            "io_faults": self.io_faults,
            "avg_response_ms": round(self.avg_response_ms, 1),
            "p99_response_ms": round(self.p99_response_ms, 1),
            "p999_response_ms": round(self.p999_response_ms, 1),
            "max_response_ms": round(self.max_response_ms, 1),
            "std_response_ms": round(self.std_response_ms, 1),
            "window_ms": round(self.window_ms, 1),
            "cpu_utilization": round(self.cpu_utilization, 3),
        }

    def __repr__(self) -> str:
        return (f"<Metrics {self.algorithm} mpl={self.mpl} "
                f"tps={self.throughput_tps:.1f} "
                f"art={self.avg_response_ms:.0f}ms>")
