"""Configuration for the engine's cost model and the paper's workload.

``SystemConfig`` holds the simulated-hardware cost model.  The constants
are calibrated so the no-reorganization baseline lands near the paper's
absolute numbers on its 167 MHz UltraSPARC (NR throughput peaking around
MPL 5 at ~40 tps and ~35 tps at MPL 30; average response time ~800 ms at
MPL 30) — see EXPERIMENTS.md for the calibration.

``WorkloadConfig`` is Table 1 of the paper, plus the structural constants
of §5.2 (85-object cluster trees, which are exactly complete 4-ary trees
of depth 3: 1 + 4 + 16 + 64 = 85).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional


class _Config:
    """What every configuration dataclass below inherits."""

    def copy(self, **overrides):
        """A copy with ``overrides`` replaced (validation re-runs)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class RetryPolicy(_Config):
    """One deterministic retry/backoff policy for every retry loop.

    The repo's retry sites share two delay shapes:

    * ``"exponential"`` — ``min(base_ms * factor**attempt, max_ms)``,
      scaled down by up to ``jitter`` drawn from the caller's seeded RNG
      (the reorganizer's deadlock retries, transient-I/O retries, and
      the 2PC RPC layer);
    * ``"uniform"`` — a fresh ``uniform(low_ms, high_ms)`` draw per
      retry (the workload driver's and serving layer's abort backoff).

    The policy itself is stateless and frozen; determinism comes from
    the caller passing a seeded ``random.Random`` (build one with
    :meth:`rng`).  ``delay_ms`` draws from the RNG exactly as the
    historical inline code did, so seeded runs reproduce byte-for-byte.
    Frozen also means it compares by value, so a config that holds one
    (``SystemConfig.io_retry``, ``ReorgConfig.deadlock_retry``,
    ``ServeConfig.abort_retry``) still does — ``Database.with_workload``
    keys its load image on that.
    """

    #: Give up after this many retries (``None`` = retry forever).
    max_retries: Optional[int] = 8
    kind: str = "exponential"
    # Exponential shape.  ``base_ms <= 0`` means retry immediately
    # (no delay, and — important for determinism — no RNG draw).
    base_ms: float = 8.0
    factor: float = 2.0
    max_ms: float = float("inf")
    jitter: float = 0.0
    # Uniform shape.
    low_ms: float = 1.0
    high_ms: float = 50.0

    @classmethod
    def exponential(cls, base_ms: float, factor: float = 2.0,
                    max_ms: float = float("inf"), jitter: float = 0.0,
                    max_retries: Optional[int] = 8) -> "RetryPolicy":
        return cls(max_retries=max_retries, kind="exponential",
                   base_ms=base_ms, factor=factor, max_ms=max_ms,
                   jitter=jitter)

    @classmethod
    def uniform(cls, low_ms: float = 1.0, high_ms: float = 50.0,
                max_retries: Optional[int] = 8) -> "RetryPolicy":
        return cls(max_retries=max_retries, kind="uniform",
                   low_ms=low_ms, high_ms=high_ms)

    @staticmethod
    def rng(label: object) -> random.Random:
        """A seeded RNG for this retry sequence.  String labels keep
        runs reproducible (tuples would go through randomized hash())."""
        return random.Random(label)

    def exhausted(self, retries: int) -> bool:
        """True once ``retries`` failures have used up the budget."""
        return self.max_retries is not None and retries >= self.max_retries

    def delay_ms(self, attempt: int,
                 rng: Optional[random.Random] = None) -> float:
        """Backoff before the ``attempt``-th retry (0-based).

        Exponential draws one ``rng.random()`` when an RNG is supplied
        and ``base_ms > 0``; uniform draws one ``rng.uniform``.  Callers
        that share their RNG with other draws rely on this exact
        consumption pattern.
        """
        if self.kind == "uniform":
            if rng is None:
                return (self.low_ms + self.high_ms) / 2.0
            return rng.uniform(self.low_ms, self.high_ms)
        if self.base_ms <= 0:
            return 0.0
        delay = min(self.base_ms * self.factor ** attempt, self.max_ms)
        if rng is not None:
            delay *= 1.0 - self.jitter * rng.random()
        return delay


@dataclass
class SystemConfig(_Config):
    """Engine parameters and the simulated cost model (times in ms)."""

    page_size: int = 4096
    cpu_count: int = 1                    # the paper's machine: uniprocessor
    lock_timeout_ms: float = 1000.0       # §5: "set to one second"
    log_flush_ms: float = 8.0             # one log-disk write at commit

    # Per-operation CPU costs for user transactions.
    cpu_object_access_ms: float = 3.0     # one random-walk object access
    cpu_update_extra_ms: float = 0.5      # additional work for an update
    cpu_undo_per_op_ms: float = 0.3       # rollback work per logged change

    # CPU costs for the reorganization utility.
    cpu_traverse_ms: float = 0.4          # fuzzy traversal, per object
    cpu_migrate_ms: float = 1.5           # copy + bookkeeping, per object
    cpu_ref_patch_ms: float = 0.3         # per parent reference update

    # Disk-resident setting (paper §7, future work): pages are cached in
    # a buffer pool and page faults cost data-disk I/O.
    disk_resident: bool = False
    buffer_pool_pages: int = 512
    disk_read_ms: float = 10.0
    disk_write_ms: float = 10.0

    ert_bucket_capacity: int = 8          # extendible-hash bucket size
    #: Deadlock handling: ``"timeout"`` is the paper's scheme (§5); with
    #: ``"waits-for"`` the lock manager detects cycles at block time and
    #: victimizes the requester that closed the cycle (the timeout stays
    #: armed as a fallback).  The serving layer defaults to waits-for.
    deadlock_detection: str = "timeout"
    #: Strict 2PL; ``False`` releases read locks early (§4.1), and is
    #: what makes the lock manager keep its ever-locked history.
    strict_transactions: bool = True

    # Lock-manager selection (ROADMAP item 4): ``"flat"`` is the paper's
    # per-object S/X scheme; ``"hier"`` the multi-granularity manager
    # (partition→page→object intention locks, ``repro.hlock``).
    lock_manager: str = "flat"
    #: Auto-escalation: once a transaction holds this many fine (object)
    #: locks on one page, promote them to a single page lock (0 = off).
    #: A conflicting requester de-escalates the page instead of blocking
    #: (safe: the covered fine locks are re-granted).
    lock_escalate_after: int = 0

    #: Transient-I/O handling (exercised by the repro.faults injector): a
    #: failed page read/write or log flush is retried with uncapped
    #: exponential backoff, no jitter, before the error escalates.
    io_retry: RetryPolicy = RetryPolicy.exponential(5.0, max_retries=4)

    #: Corruption defense.  Pages always carry checksums; this controls
    #: whether they are re-verified on every buffer-pool miss read
    #: (disk-resident setting).
    verify_page_reads: bool = True


@dataclass
class WorkloadConfig(_Config):
    """Table 1 of the paper (defaults column) plus §5.2 structure."""

    num_partitions: int = 10              # NUMPARTITIONS
    objects_per_partition: int = 4080     # NUMOBJS (= 48 clusters of 85)
    mpl: int = 30                         # MPL
    ops_per_trans: int = 8                # OPSPERTRANS
    update_prob: float = 0.5              # UPDATEPROB
    glue_factor: float = 0.05             # GLUEFACTOR

    cluster_size: int = 85                # §5.2: trees of 85 objects
    branching: int = 4                    # 85 = 1 + 4 + 16 + 64
    payload_bytes: int = 48               # ≈100-byte objects (§5.3.3)
    ref_update_prob: float = 0.1          # update accesses that re-point
                                          # the glue edge (drives the TRT)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.objects_per_partition % self.cluster_size:
            raise ValueError(
                f"objects_per_partition={self.objects_per_partition} must be "
                f"a multiple of cluster_size={self.cluster_size}")
        expected = sum(self.branching ** d for d in range(self._depth() + 1))
        if expected != self.cluster_size:
            raise ValueError(
                f"cluster_size={self.cluster_size} is not a complete "
                f"{self.branching}-ary tree (nearest: {expected})")

    def _depth(self) -> int:
        total, depth = 1, 0
        while total < self.cluster_size:
            depth += 1
            total += self.branching ** depth
        return depth

    @property
    def clusters_per_partition(self) -> int:
        return self.objects_per_partition // self.cluster_size

    @property
    def tree_depth(self) -> int:
        return self._depth()


@dataclass
class ReorgConfig(_Config):
    """Knobs for the reorganization utilities."""

    #: Object migrations grouped per system transaction (§4.3).  The paper's
    #: basic IRA uses one transaction per object migration.
    migration_batch_size: int = 1
    #: Collect unreachable objects discovered by the traversal (§4.6).
    collect_garbage: bool = False
    #: Checkpoint reorganizer state every N migrations (0 = never, §4.4).
    checkpoint_every: int = 0
    #: What a migration does after losing a deadlock (a lock timeout,
    #: §4.4): the budget and the backoff index count *consecutive* losses
    #: of one unit of work — a batch, or one object under §4.2 — so
    #: repeated collisions with the same user transactions
    #: de-synchronize instead of re-colliding in lockstep, and the
    #: jitter comes from a seeded RNG, so runs stay deterministic.
    #: ``base_ms=0`` retries immediately.
    deadlock_retry: RetryPolicy = RetryPolicy.exponential(
        8.0, max_ms=1000.0, jitter=0.5, max_retries=50)


@dataclass
class ServeConfig(_Config):
    """Front-end serving layer (``repro.serve``): open-loop arrivals,
    admission control, deadlines, and retry budgets."""

    #: Arrival process: ``"poisson"`` (stationary), ``"flash-crowd"``
    #: (rate multiplied by ``flash_multiplier`` inside the flash window),
    #: or ``"diurnal"`` (sinusoidal rate modulation).
    arrival: str = "poisson"
    #: Mean open-loop arrival rate (requests per simulated second).
    arrival_rate_tps: float = 40.0
    flash_multiplier: float = 6.0
    flash_start_ms: float = 10_000.0
    flash_duration_ms: float = 10_000.0
    diurnal_period_ms: float = 40_000.0
    #: Diurnal peak-to-mean swing in [0, 1).
    diurnal_amplitude: float = 0.6
    #: Zipf exponent for partition skew (0 = uniform).
    zipf_s: float = 1.1
    #: Bounded admission queue: arrivals beyond this depth are shed.
    queue_depth: int = 64
    #: Server pool size — concurrent in-flight requests (the MPL).
    servers: int = 30
    #: A queued request still unserved after this long is shed (stale).
    queue_deadline_ms: float = 2_000.0
    #: End-to-end deadline: queue wait + execution; a miss is recorded
    #: (the request still completes — the simulator cannot preempt a
    #: transaction mid-walk, matching a real server finishing the work).
    response_deadline_ms: float = 8_000.0
    #: Per-request backoff and retry budget after deadlock/timeout
    #: aborts — the workload driver's uniform jitter; an exhausted
    #: budget gives the request up (a distinct counter).
    abort_retry: RetryPolicy = RetryPolicy.uniform(max_retries=8)
    #: How long arrivals are generated (the measurement window may close
    #: later, once in-flight requests drain).
    duration_ms: float = 30_000.0
    seed: int = 42


@dataclass
class FleetConfig(_Config):
    """Multi-worker reorganizer fleet: partition claims via sim-time
    leases with heartbeats (crash takeover resumes from REORG_PROGRESS)."""

    workers: int = 2
    #: Algorithm per worker: ``"ira"`` or ``"ira-2lock"``.
    algorithm: str = "ira-2lock"
    #: Lease duration; a worker that misses heartbeats for this long is
    #: presumed dead and its partition claim becomes takeable.
    lease_ms: float = 600.0
    #: Heartbeat renewal interval (must be well under ``lease_ms``).
    heartbeat_ms: float = 150.0


@dataclass
class GovernorConfig(_Config):
    """Reorg governor: paces or pauses the fleet when the serving layer's
    shed/deadline-miss rates breach the SLO."""

    #: Sampling tick and sliding-window length for rate estimation.
    tick_ms: float = 250.0
    window_ms: float = 2_000.0
    #: SLO thresholds as fractions of arrivals in the window.
    shed_slo: float = 0.02
    deadline_miss_slo: float = 0.05
    #: Pacing delay injected between reorganizer migration batches when
    #: the SLO is breached (the governor "paces").
    pace_delay_ms: float = 40.0
    #: Consecutive breached ticks after which workers pause outright
    #: until the rates recover below the SLO.
    pause_after_breaches: int = 4


@dataclass
class DistConfig(_Config):
    """Multi-node cluster (``repro.dist``): sharding, interconnect and
    cross-node reorganization knobs."""

    #: Nodes in the cluster; node ``i`` owns data partition ``10*i + 1``
    #: (reorganized) and hub partition ``10*i + 2`` (never reorganized —
    #: see DIST.md for why cross-node references only originate in hubs).
    node_count: int = 3
    #: Live objects bulk-loaded into each node's data partition.
    objects_per_partition: int = 36
    payload_bytes: int = 24
    #: Fraction of each data partition's objects given a *remote* hub
    #: parent (the edges whose TRT maintenance needs 2PC).
    remote_ref_fraction: float = 0.5
    #: Fraction additionally given a *local* hub parent (same node,
    #: different partition — patched by the ordinary local protocol).
    local_hub_fraction: float = 0.25
    #: Reference slots per hub object.
    hub_fanout: int = 4
    seed: int = 7
    #: Per-link one-way delay range; the jitter is also what reorders
    #: messages relative to each other.
    link_delay_min_ms: float = 0.5
    link_delay_max_ms: float = 3.0
    heartbeat_ms: float = 25.0
    suspect_after_ms: float = 80.0
    #: Per-attempt RPC deadline; retries follow ``dist.rpc.RPC_RETRY``.
    rpc_deadline_ms: float = 30.0
    #: How long a prepared participant waits for the pushed decision
    #: before pulling it from the coordinator.
    decision_timeout_ms: float = 60.0
    #: Per-node background scrubber cadence (0 disables).
    scrub_interval_ms: float = 40.0
    scrub_pages_per_sweep: int = 4
    #: Objects per migration transaction on each node.
    migration_batch_size: int = 4
    #: Safety horizon for cluster runs (heartbeats never drain the queue,
    #: so every run uses ``run(until=...)``).
    horizon_ms: float = 120_000.0

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not 0.0 <= self.remote_ref_fraction <= 1.0:
            raise ValueError("remote_ref_fraction must be in [0, 1]")
        if not 0.0 <= self.local_hub_fraction <= 1.0:
            raise ValueError("local_hub_fraction must be in [0, 1]")


@dataclass
class MvccConfig(_Config):
    """Multi-version read tier (:mod:`repro.mvcc`) knobs."""

    #: The merge consolidates a partition's tail versions into this many
    #: new base objects per CPU yield (pure pacing — the install itself
    #: is one atomic system transaction regardless).
    merge_batch_size: int = 16
    #: Run epoch GC (prune chains + free superseded bases below the
    #: oldest active snapshot) every N commits (0 = only explicit calls).
    gc_every_commits: int = 32


@dataclass
class ExperimentConfig:
    """One performance-experiment run (driver settings)."""

    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Read by nothing — the engine has its own; accepted only because
    #: ``perf/adapter.py`` passes it (ROADMAP item 3(g)).
    system: SystemConfig = field(default_factory=SystemConfig)
    #: Simulated-time horizon (ms) for runs without a reorganizer (NR) or as
    #: a safety bound; None = run until the reorganizer finishes.
    horizon_ms: Optional[float] = None
