"""The experiment driver (paper §5.2, "Transaction Access Pattern").

Fixes the multiprogramming level by spawning MPL thread processes; each
thread submits random-walk transactions back-to-back, all of one
thread's walks starting in its home partition, threads assigned to
partitions round-robin.  A transaction aborted by a lock timeout is
retried by its thread; the logical transaction's response time runs from
first submission to final commit.

The measurement window closes when the reorganizer finishes (the paper's
protocol: "transactions were run until the reorganization operation
completed"), or at an explicit horizon for NR runs — and §5.3.4's
variant measures a PQR run over IRA's longer duration by passing both a
reorganizer and a horizon.  Threads drain: a transaction in flight when
the window closes finishes and is recorded, which is how PQR's blocked
transactions surface their enormous response times in Table 2.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..concurrency import LockTimeoutError
from ..sim import Delay
from ..config import ExperimentConfig, RetryPolicy
from .graphgen import GraphLayout
from .metrics import ExperimentMetrics, TransactionRecord
from .transactions import random_walk_transaction


class WorkloadDriver:
    """Runs one experiment: MPL threads + (optionally) a reorganizer.

    ``walk_fn`` (the per-transaction generator) and ``retry_on`` (the
    abort exceptions a thread retries) may be set on an instance, or
    overridden by a subclass, to run the same closed-loop protocol over
    a different transaction body — a bench arm swaps in snapshot-
    transaction walks retried on first-committer-wins conflicts, or the
    scan mix retried on §4.2 stale reads, with identical seeding.
    """

    walk_fn = staticmethod(random_walk_transaction)
    retry_on = (LockTimeoutError,)

    def __init__(self, engine, layout: GraphLayout,
                 experiment: ExperimentConfig):
        self.engine = engine
        self.layout = layout
        self.experiment = experiment
        self.config = experiment.workload
        self._stop = False
        self._start_ms = 0.0

    def run(self, reorganizer=None,
            horizon_ms: Optional[float] = None) -> ExperimentMetrics:
        """Run one experiment; returns the metrics.

        * ``reorganizer`` only — the window closes when its ``run()``
          generator finishes (the paper's protocol).  A *list* of
          reorganizers runs them concurrently (different partitions); the
          window closes when the last one finishes.
        * ``horizon_ms`` only — an NR run over a fixed window.
        * both — the window closes at the horizon even if the reorganizer
          finished earlier (§5.3.4's equal-duration comparison).
        """
        reorganizers = ([] if reorganizer is None
                        else reorganizer if isinstance(reorganizer, list)
                        else [reorganizer])
        if not reorganizers and horizon_ms is None:
            horizon_ms = self.experiment.horizon_ms
            if horizon_ms is None:
                raise ValueError("need a reorganizer and/or a horizon_ms")
        algorithm = (reorganizers[0].algorithm_name if reorganizers
                     else "nr")
        metrics = ExperimentMetrics(algorithm=algorithm,
                                    mpl=self.config.mpl)
        self._stop = False
        sim = self.engine.sim
        self._start_ms = sim.now
        buffer = self.engine.buffer
        buffer_base = buffer.stats.snapshot() if buffer is not None else None

        for thread_id in range(self.config.mpl):
            sim.spawn(self._thread_process(thread_id, metrics),
                      name=f"thread-{thread_id}")

        close_at_reorg_end = horizon_ms is None
        remaining = {"count": len(reorganizers)}
        reorg_procs = [
            sim.spawn(self._reorg_process(one, metrics,
                                          close_at_reorg_end, remaining),
                      name=f"reorganizer-{index}")
            for index, one in enumerate(reorganizers)
        ]
        if horizon_ms is not None:
            def close_window() -> None:
                self._close(metrics)
            sim.call_later(horizon_ms, close_window)

        sim.run()

        if reorg_procs:
            metrics.reorg_stats = reorg_procs[0].result
            metrics.reorg_duration_ms = max(
                proc.result.duration_ms for proc in reorg_procs)
        metrics.collect_engine_counters(self.engine, buffer_base)
        return metrics

    def _close(self, metrics: ExperimentMetrics) -> None:
        if not self._stop:
            self._stop = True
            metrics.window_ms = self.engine.sim.now - self._start_ms

    # -- processes ------------------------------------------------------------------

    def _thread_process(self, thread_id: int,
                        metrics: ExperimentMetrics
                        ) -> Generator[Any, Any, None]:
        # Unbounded retries: a closed-loop thread never gives a logical
        # transaction up.  The policy's draws come from ``thread_rng``,
        # which is shared with the per-transaction seed draws — the
        # interleaving is part of the seeded runs' byte-identity.
        policy = RetryPolicy.uniform(max_retries=None)
        thread_rng = RetryPolicy.rng(f"{self.config.seed}/thread-{thread_id}")
        home = 1 + thread_id % self.config.num_partitions
        while not self._stop:
            started = self.engine.sim.now
            retries = 0
            # A logical transaction is a fixed piece of work: a retry after
            # a timeout-abort re-runs the *same* walk (same per-transaction
            # seed), it does not draw a fresh random one.  This is what
            # lets a reorganizer holding the locks a transaction needs pin
            # that transaction down for its whole duration (paper §5.3.1).
            txn_seed = thread_rng.getrandbits(64)
            while True:
                try:
                    yield from self.walk_fn(
                        self.engine, self.layout, self.config,
                        random.Random(txn_seed), home)
                    break
                except self.retry_on:
                    metrics.aborts += 1
                    retries += 1
                    # Randomized backoff before the retry: two transactions
                    # deadlocking on identical walks would otherwise repeat
                    # the same collision in deterministic lockstep forever
                    # (a real system's scheduler provides this jitter).
                    yield Delay(policy.delay_ms(retries, thread_rng))
            metrics.records.append(TransactionRecord(
                thread_id=thread_id,
                started_ms=started - self._start_ms,
                finished_ms=self.engine.sim.now - self._start_ms,
                retries=retries))

    def _reorg_process(self, reorganizer, metrics: ExperimentMetrics,
                       close_at_end: bool,
                       remaining: dict) -> Generator[Any, Any, Any]:
        stats = yield from reorganizer.run()
        remaining["count"] -= 1
        if close_at_end and remaining["count"] == 0:
            self._close(metrics)
        # Track migrated persistent roots so later runs/examples against
        # the same database keep working; an attached tracer's statistics
        # follow the objects to their new addresses the same way.
        self.layout.remap(stats.mapping)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.graph.remap(stats.mapping)
        return stats
