"""The serving layer: open-loop sessions over the storage engine.

``ServingLayer`` replaces the closed-loop MPL driver for overload
experiments: an arrival process generates requests on its own clock
(:mod:`repro.serve.arrivals`), a bounded admission queue sheds what the
``servers``-wide execution pool cannot absorb
(:mod:`repro.serve.admission`), and each admitted request runs the same
§5.2 random-walk transaction the paper's driver uses — retried on
deadlock aborts under a per-request retry budget, with the driver's
deterministic backoff jitter.

The response time of a request runs from *arrival* to final commit —
queue wait included — which is what a client would measure, and what
makes p99/p999 degrade visibly when a reorganizer fleet competes for
locks during a flash crowd.

Composition with reorganization: pass a :class:`ReorgFleet` (and
optionally a :class:`ReorgGovernor`) and ``run`` starts them on the
same simulator; the run ends when arrivals stop, the queue drains *and*
the fleet finishes its claims.  The measurement window closes at server
drain (governor included), so fleet work past the window never skews
the serving metrics.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..concurrency import LockTimeoutError
from ..errors import NodeUnreachableError, WriteConflictError
from ..config import ServeConfig, WorkloadConfig
from ..mvcc import mvcc_random_walk
from ..sim import Delay
from ..storage import NoSuchObjectError
from ..workload.metrics import TransactionRecord
from ..workload.transactions import random_walk_transaction
from .admission import AdmissionQueue, Request
from .arrivals import ZipfPartitions, interarrival_ms
from .fleet import ReorgFleet
from .governor import ReorgGovernor
from .metrics import ServeMetrics


class ServingLayer:
    """Runs one open-loop serving experiment (optionally with a fleet)."""

    def __init__(self, engine, layout, serve: ServeConfig,
                 workload: Optional[WorkloadConfig] = None):
        self.engine = engine
        self.layout = layout
        self.serve = serve
        self.workload = workload or WorkloadConfig()
        self._start_ms = 0.0
        self._live_servers = 0
        self._retry_on: tuple = ()      # set per run: depends on the fleet

    def run(self, fleet: Optional[ReorgFleet] = None,
            governor: Optional[ReorgGovernor] = None) -> ServeMetrics:
        sim = self.engine.sim
        cfg = self.serve
        algorithm = fleet.config.algorithm if fleet is not None else "nr"
        metrics = ServeMetrics(algorithm=algorithm, mpl=cfg.servers)
        # A lock timeout, an unreachable remote owner (a distributed read
        # racing a peer's crash window) and a first-committer-wins
        # conflict are transient.  Beside a two-lock fleet so is a missing
        # object: a walk can be granted an old address's lock only after
        # the migration freed the slot (§4.2), aborts with
        # ``reason="stale-read"``, and its retry re-reads the patched
        # parent.  Under any other reorganizer that is a bug: stay loud.
        self._retry_on = (LockTimeoutError, NodeUnreachableError,
                          WriteConflictError) + (
            (NoSuchObjectError,) if algorithm == "ira-2lock" else ())
        if governor is not None:
            governor.metrics = metrics
        self._start_ms = sim.now
        buffer = self.engine.buffer
        buffer_base = buffer.stats.snapshot() if buffer is not None else None

        queue = AdmissionQueue(sim, cfg.queue_depth)
        sim.spawn(self._arrival_process(queue, metrics), name="arrivals")
        self._live_servers = cfg.servers
        for server_id in range(cfg.servers):
            sim.spawn(self._server_process(server_id, queue, metrics,
                                           governor),
                      name=f"server-{server_id}")
        if fleet is not None:
            fleet.spawn()
        if governor is not None:
            sim.spawn(governor.tick_process(), name="reorg-governor")

        sim.run()

        if fleet is not None and fleet.stats:
            by_pid = sorted(fleet.stats.items())
            metrics.reorg_stats = by_pid[0][1]
            metrics.reorg_duration_ms = max(
                stats.duration_ms for _, stats in by_pid)
        metrics.collect_engine_counters(self.engine, buffer_base)
        return metrics

    # -- processes ---------------------------------------------------------------

    def _arrival_process(self, queue: AdmissionQueue,
                         metrics: ServeMetrics
                         ) -> Generator[Any, Any, None]:
        cfg = self.serve
        sim = self.engine.sim
        rng = random.Random(f"{cfg.seed}/arrivals")
        zipf = ZipfPartitions(self.workload.num_partitions, cfg.zipf_s)
        request_id = 0
        while True:
            elapsed = sim.now - self._start_ms
            yield Delay(interarrival_ms(cfg, rng, elapsed))
            if sim.now - self._start_ms >= cfg.duration_ms:
                break
            now = sim.now
            request_id += 1
            metrics.arrivals += 1
            request = Request(
                request_id=request_id,
                partition_id=zipf.choose(rng),
                arrived_ms=now,
                queue_deadline_ms=now + cfg.queue_deadline_ms,
                response_deadline_ms=now + cfg.response_deadline_ms,
                txn_seed=rng.getrandbits(64))
            if not queue.put(request):
                metrics.shed += 1
                metrics.shed_queue_full += 1
        queue.close()

    def _server_process(self, server_id: int, queue: AdmissionQueue,
                        metrics: ServeMetrics,
                        governor: Optional[ReorgGovernor]
                        ) -> Generator[Any, Any, None]:
        sim = self.engine.sim
        try:
            while True:
                request = yield from queue.get()
                if request is None:
                    return
                now = sim.now
                if now > request.queue_deadline_ms:
                    # Stale: nobody is waiting for this answer any more;
                    # executing it would only deepen the overload.
                    request.outcome = "shed-stale"
                    metrics.shed += 1
                    metrics.shed_stale += 1
                    continue
                metrics.admitted += 1
                metrics.queue_wait_ms_total += now - request.arrived_ms
                request.started_ms = now
                yield from self._execute(server_id, request, metrics)
        finally:
            self._live_servers -= 1
            if self._live_servers == 0:
                # Last server out closes the measurement window and
                # releases the governor (the fleet may keep running).
                metrics.window_ms = sim.now - self._start_ms
                if governor is not None:
                    governor.stop()

    def _execute(self, server_id: int, request: Request,
                 metrics: ServeMetrics) -> Generator[Any, Any, None]:
        sim = self.engine.sim
        cfg = self.serve
        policy = cfg.abort_retry
        backoff_rng = policy.rng(f"{cfg.seed}/request-{request.request_id}")
        # With an MVCC tier attached, requests run as snapshot
        # transactions: reads route to versioned images and never wait on
        # a reorganizer — the serving-side half of ROADMAP item 2.
        walk = (mvcc_random_walk
                if self.engine.mvcc is not None
                else random_walk_transaction)
        while True:
            try:
                yield from walk(
                    self.engine, self.layout, self.workload,
                    random.Random(request.txn_seed), request.partition_id)
                break
            except self._retry_on:
                # Transient: back off and re-run the transaction.
                metrics.aborts += 1
                request.retries += 1
                if policy.exhausted(request.retries):
                    request.outcome = "retry-budget-exhausted"
                    metrics.retry_budget_exhausted += 1
                    return
                # The driver's jitter: identical retries would otherwise
                # re-collide in deterministic lockstep.
                yield Delay(policy.delay_ms(request.retries, backoff_rng))
        finished = sim.now
        request.outcome = "completed"
        if finished > request.response_deadline_ms:
            metrics.deadline_misses += 1
        metrics.records.append(TransactionRecord(
            thread_id=server_id,
            started_ms=request.arrived_ms - self._start_ms,
            finished_ms=finished - self._start_ms,
            retries=request.retries))
