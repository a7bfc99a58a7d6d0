"""The reorganizer fleet: N crash-tolerant workers over leased claims.

Workers pull partition claims (typically ranked by the
:class:`~repro.cluster.advisor.ClusteringAdvisor`) from a shared queue.
A claim is guarded by a sim-time lease (:mod:`repro.serve.leases`): the
worker heartbeats while reorganizing, and a chaos kill — which takes
worker and heartbeat together, they share the worker-name prefix —
leaves the lease to expire so a survivor can take the partition over.

Takeover resumes, never restarts: the dead worker's progress rides the
WAL as ``REORG_PROGRESS`` records (§4.4), so the survivor reaps the
orphaned system transactions (committing the one whose commit record
made the log, aborting the rest), rolls the checkpointed state forward
over committed migrations, rebuilds the TRT from the log suffix and
continues migrating from where its predecessor died.

Deliberately NOT structured as ``try/finally`` around the lease: a
killed process *does* run its ``finally`` blocks, and releasing the
lease from one would hand the partition over instantly — bypassing the
expiry wait that makes the mutual-exclusion window sound.  The lease is
released only on the normal completion path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Set

from ..config import FleetConfig, ReorgConfig
from ..core import CompactionPlan
from ..core.checkpointing import WalReorgStateStore, resume_reorganization
from ..sim import Delay
from ..txn.transaction import TxnStatus
from ..wal import TransactionTable
from .governor import ReorgGovernor
from .leases import LeaseTable


class ReorgFleet:
    """Spawns and tracks N reorganizer workers over a claim queue."""

    def __init__(self, engine, claims: List[int], config: FleetConfig,
                 reorg_config: Optional[ReorgConfig] = None,
                 governor: Optional[ReorgGovernor] = None,
                 layout=None, plan_factory=CompactionPlan):
        self.engine = engine
        self.config = config
        self.governor = governor
        self.layout = layout
        # In-place compaction per claim: concurrent workers on disjoint
        # partitions must not relocate into each other's target space.
        self.plan_factory = plan_factory
        reorg_config = reorg_config or ReorgConfig()
        if reorg_config.checkpoint_every <= 0:
            # Resumability needs durable progress; default to a modest
            # checkpoint cadence rather than silently running blind.
            reorg_config = reorg_config.copy(checkpoint_every=8)
        self.reorg_config = reorg_config
        self.leases = LeaseTable(engine.sim, config.lease_ms)
        self._claims: Deque[int] = deque(claims)
        self.completed: Set[int] = set()
        self.stats: Dict[int, object] = {}
        #: Partitions continued from a predecessor's WAL checkpoint.
        self.resumes = 0
        #: Orphaned system transactions reaped at takeover.
        self.orphans_committed = 0
        self.orphans_aborted = 0
        self.workers: List[object] = []
        #: Live reorganizer per partition (latest incarnation — takeover
        #: replaces the corpse's entry).  The oracle suite reads these:
        #: ``merged_mapping`` unions their migration mappings.
        self.reorganizers: Dict[int, object] = {}
        #: Called with each reorganizer as it is constructed (fresh or
        #: resumed), before it runs — the hook point for installing
        #: per-partition lock-footprint monitors.
        self.on_reorganizer = None
        self._in_flight: Set[int] = set()
        # Tids already being settled — the reaper and a takeover worker
        # must not both walk the same undo chain.
        self._reaping: Set[int] = set()

    @property
    def done(self) -> bool:
        return not self._claims and not self._in_flight

    def spawn(self) -> List[object]:
        """Start the worker processes; returns their Process handles."""
        sim = self.engine.sim
        self.workers = [
            sim.spawn(self._worker(f"reorg-worker-{index}"),
                      name=f"reorg-worker-{index}")
            for index in range(self.config.workers)
        ]
        # The reaper's name must not contain "reorg-worker": a chaos
        # kill targeting a worker must leave failure detection running.
        sim.spawn(self._reaper(), name="fleet-lease-reaper")
        return self.workers

    def install_monitors(self, limit: int = 2) -> List[object]:
        """Per-incarnation §4.2 lock-footprint monitors, takeover-aware.

        Each reorganizer (fresh or resumed) gets its own monitor.  At a
        takeover the predecessor's monitor is demoted to peak-only: its
        old/new address collapse map froze at the kill, so it cannot
        judge the successor's migrations — only the incarnation that
        owns the in-flight pair can enforce the two-lock claim.
        Returns the (growing) monitor list for the oracle suite.
        """
        from ..explore.oracles import LockFootprintMonitor
        monitors: List[object] = []
        active: Dict[int, object] = {}
        chained = self.on_reorganizer

        def hook(reorganizer) -> None:
            if chained is not None:
                chained(reorganizer)
            pid = reorganizer.partition_id
            prior = active.get(pid)
            if prior is not None:
                prior.limit = None
            monitor = self.engine.subscribe(LockFootprintMonitor(
                self.engine, reorganizer, limit=limit))
            active[pid] = monitor
            monitors.append(monitor)

        self.on_reorganizer = hook
        return monitors

    # -- worker ------------------------------------------------------------------

    def _worker(self, name: str) -> Generator[Any, Any, None]:
        engine = self.engine
        sim = engine.sim
        while True:
            pid = self._next_claim()
            if pid is None:
                # Queue drained; look for orphans — in-flight partitions
                # whose lease ran out because their worker died.  Idle
                # until everything in flight is done or abandoned.
                pid = self._orphan_claim()
                if pid is None:
                    if not self._in_flight - self.completed:
                        return
                    yield Delay(self.config.heartbeat_ms)
                    continue
            lease = self.leases.acquire(pid, name)
            if lease is None:
                # A live lease blocks us: either its owner is healthy
                # (and will complete the partition) or it just died and
                # the lease must be allowed to run out.  Requeue and
                # retry after roughly one lease term.
                self._claims.append(pid)
                yield Delay(self.config.lease_ms)
                continue
            self._in_flight.add(pid)
            heartbeat = sim.spawn(self._heartbeat(pid, name),
                                  name=f"{name}-heartbeat-p{pid}")
            store = WalReorgStateStore(engine, pid)
            # One lookup per claim: tombstone, state and resume all
            # derive from the partition's latest progress record.
            latest = store.latest_record()
            if latest is not None and latest.is_tombstone:
                # A predecessor finished this partition before dying.
                self.completed.add(pid)
                self._finish_claim(pid, name, heartbeat)
                continue
            # Reap unconditionally: a worker killed before its first
            # checkpoint still leaves orphaned system transactions (on
            # a cleanly-claimed partition there are none, and the reap
            # reads no log).
            yield from self._reap_orphans(pid)
            if latest is not None:
                reorganizer = resume_reorganization(
                    engine, store, plan=self.plan_factory(),
                    reorg_config=self.reorg_config,
                    state=store.load(latest))
                self.resumes += 1
            else:
                from ..database import REORGANIZERS
                factory = REORGANIZERS[self.config.algorithm]
                reorganizer = factory(engine, pid,
                                      plan=self.plan_factory(),
                                      reorg_config=self.reorg_config,
                                      state_store=store)
            if self.governor is not None:
                reorganizer.pacer = self.governor.gate
            self.reorganizers[pid] = reorganizer
            if self.on_reorganizer is not None:
                self.on_reorganizer(reorganizer)
            stats = yield from reorganizer.run()
            # Normal completion only from here down — a kill unwinds
            # past this point leaving the lease to expire (see module
            # docstring).
            self.stats[pid] = stats
            self.completed.add(pid)
            if self.layout is not None:
                self.layout.remap(stats.mapping)
            self._finish_claim(pid, name, heartbeat)

    def _heartbeat(self, pid: int, owner: str
                   ) -> Generator[Any, Any, None]:
        while True:
            yield Delay(self.config.heartbeat_ms)
            if not self.leases.renew(pid, owner):
                return

    def _next_claim(self) -> Optional[int]:
        while self._claims:
            pid = self._claims.popleft()
            if pid not in self.completed:
                return pid
        return None

    def _orphan_claim(self) -> Optional[int]:
        """An in-flight partition whose lease has expired, if any."""
        for pid in sorted(self._in_flight - self.completed):
            if self.leases.holder(pid) is None:
                return pid
        return None

    def _finish_claim(self, pid: int, name: str, heartbeat) -> None:
        self._in_flight.discard(pid)
        self.leases.release(pid, name)
        heartbeat.kill()

    # -- takeover ----------------------------------------------------------------

    def _reaper(self) -> Generator[Any, Any, None]:
        """Failure detector: reap a dead worker's transactions promptly.

        A killed worker's in-flight system transactions keep their locks
        until someone settles them; waiting for a takeover is not enough
        — the surviving workers may themselves be blocked on those very
        locks (a cross-partition parent patch), which would deadlock the
        whole fleet.  The reaper watches for in-flight partitions whose
        lease has expired (missed heartbeats ⇒ the owner is dead) and
        reaps immediately; the eventual takeover's own reap then finds
        nothing left to do.
        """
        while True:
            pending = (self._in_flight - self.completed) or self._claims
            workers_live = any(worker.alive for worker in self.workers)
            if not pending:
                return
            for pid in sorted(self._in_flight - self.completed):
                if self.leases.holder(pid) is None:
                    yield from self._reap_orphans(pid)
            if not workers_live:
                # Everyone died; locks are released, nothing more to do.
                return
            yield Delay(self.config.heartbeat_ms)

    def _reap_orphans(self, pid: int) -> Generator[Any, Any, None]:
        """Settle the dead worker's in-flight system transactions.

        A transaction whose COMMIT record made the log is committed —
        the worker died between logging the commit and bookkeeping — so
        it is finished in place; anything else is rolled back (its undo
        chain releases the locks the corpse still holds).
        """
        engine = self.engine
        txns = engine.txns
        orphans = [txn for txn in map(txns.transaction,
                                      sorted(txns.active_tids()))
                   if txn.system and txn.reorg_partition == pid
                   and txn.tid not in self._reaping]
        if not orphans:
            return
        # Decode the log only with something to settle.
        committed_tids = TransactionTable.scan(engine.log).committed
        for txn in orphans:
            tid = txn.tid
            if tid in self._reaping:
                continue    # settled meanwhile by a concurrent reap
            self._reaping.add(tid)
            if tid in committed_tids:
                txn.status = TxnStatus.COMMITTED
                engine.txns.finish(txn)
                self.orphans_committed += 1
            else:
                yield from txn.abort(reason="takeover")
                self.orphans_aborted += 1
